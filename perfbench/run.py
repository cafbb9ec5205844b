#!/usr/bin/env python3
"""Run one voltcache benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE.json HEAD.json

Builds perfbench/ (and with it the voltcache libraries) into .bench_build/
on first use, runs vcbench, and prints one line per metric, the host
fingerprint and the output checks, then as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
raw result stays in .bench_build/results/ for --compare, and a traced run
writes its span log next to it. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "vcbench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if run_logged(configure, log) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configure failed; see " + log_path, 2)
        jobs = str(min(4, os.cpu_count() or 1))
        if run_logged(["cmake", "--build", BUILD_DIR, "--target", "vcbench", "-j", jobs], log):
            fail("build failed; see " + log_path, 2)


def print_report(raw, metrics, spec_names):
    fp = raw["fingerprint"]
    print("workload %s  seed %d  trace %d" % (raw["workload"], raw["seed"], int(raw["trace"])))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        gated = "*" if name in spec_names else " "
        print("%s %-44s %16.6g %-6s n=%d" % (gated, name, value, unit, n))
    for name, layer in sorted(raw["layers"].items()):
        print("  layer %-40s moves %s" % (name, layer["moves"]))
    for check in raw["checks"]:
        print("  check %-36s %s %s" % (check["name"], "ok" if check["ok"] else "FAILED",
                                       check["detail"]))


def compare(base_path, head_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    try:
        rows = benchlib.compare(base, head)
    except benchlib.FingerprintMismatch as e:
        fail("refusing to compare: %s" % e)
    for name, unit, a, b, ratio in rows:
        print("%-44s %14.6g %14.6g %-6s x%.4f" % (name, a, b, unit, ratio))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return

    spec = benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads)), 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    out = stem + ".json"
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out]
    if args.trace:
        cmd += ["--spans", stem + ".spans.json"]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("vcbench did not finish within %d s" % RUN_TIMEOUT_S, 4)
    if code != 0:
        fail("vcbench exited with %d" % code, code)

    with open(out) as f:
        raw = json.load(f)
    metrics = benchlib.reduce_result(raw)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in group]
    print_report(raw, metrics, set(names))
    try:
        line = benchlib.result_line(raw, metrics, names)
    except KeyError as e:
        fail(str(e), 5)
    sys.stdout.flush()
    print(json.dumps(line))


if __name__ == "__main__":
    main()
