"""Reduction and bookkeeping for the voltcache benchmark.

vcbench writes one raw result per run (samples, scalars, per-layer metrics,
output checks and the host fingerprint). This module turns it into named
metrics, decides correctness, and compares two results. It has no I/O of its
own beyond reading JSON, so perfbench/test_benchlib.py can test it directly.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

# Fingerprint fields two results must share to be compared. The tree's git
# describe is recorded but not compared: comparing two commits is the point.
HOST_FIELDS = ("nproc", "cpu_model", "compiler", "build_type", "ipo", "sanitize")


class FingerprintMismatch(ValueError):
    """Two results came from different hosts or builds."""


def check_name(name):
    if not NAME_RE.match(name) or len(name) > 64:
        raise ValueError("bad metric name %r" % name)
    return name


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1), or None when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(values)[rank - 1]


def latency_metrics(name, values, unit):
    """`<name>_p50_<unit>` plus the highest of p90 / p99 that has enough
    samples beyond it, each with its sample count. Withheld percentiles are
    absent."""
    out = {}
    p50 = percentile(values, 0.5)
    if p50 is not None:
        out["%s_p50_%s" % (name, unit)] = (p50, unit, len(values))
    for label, q in (("p99", 0.99), ("p90", 0.9)):
        value = percentile(values, q)
        if value is not None:
            out["%s_%s_%s" % (name, label, unit)] = (value, unit, len(values))
            break
    return out


def reduce_result(raw):
    """Every metric a raw vcbench result yields: name -> (value, unit, n)."""
    metrics = {}
    for name, scalar in raw["scalars"].items():
        metrics[name] = (scalar["value"], scalar["unit"], 1)
    for name, sample in raw["samples"].items():
        values = sample["values"]
        if sample.get("latency"):
            metrics.update(latency_metrics(name, values, sample["unit"]))
        else:
            metrics[name] = (median(values), sample["unit"], len(values))
    for name, layer in raw["layers"].items():
        metrics[name] = (layer["value"], layer["unit"], layer["count"])
    attempted = raw["attempted"]
    if attempted > 0:
        error_frac = raw["failed"] / attempted
        metrics["error_frac"] = (error_frac, "frac", attempted)
        # error_frac as a metric that is never 0: the share that succeeded.
        metrics["ok_frac"] = (1.0 - error_frac, "frac", attempted)
    for name in metrics:
        check_name(name)
    return metrics


def is_correct(raw):
    return raw["failed"] == 0 and all(check["ok"] for check in raw["checks"])


def result_line(raw, metrics, names):
    """The final JSON object: correctness, counts and the named metrics.
    Raises KeyError naming a metric the run did not produce."""
    missing = [name for name in names if name not in metrics]
    if missing:
        raise KeyError("run produced no %s" % ", ".join(missing))
    return {
        "correct": is_correct(raw),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names
        },
    }


def host_key(fingerprint):
    return {field: fingerprint.get(field) for field in HOST_FIELDS}


def compare(base, head):
    """Rows (name, unit, base value, head value, head/base) for metrics both
    results carry. Refuses results from different hosts or builds."""
    if base["workload"] != head["workload"]:
        raise ValueError("different workloads: %s vs %s" % (base["workload"], head["workload"]))
    if host_key(base["fingerprint"]) != host_key(head["fingerprint"]):
        diff = [
            "%s: %r vs %r" % (f, base["fingerprint"].get(f), head["fingerprint"].get(f))
            for f in HOST_FIELDS
            if base["fingerprint"].get(f) != head["fingerprint"].get(f)
        ]
        raise FingerprintMismatch("fingerprints differ (%s)" % "; ".join(diff))
    a = reduce_result(base)
    b = reduce_result(head)
    rows = []
    for name in sorted(set(a) & set(b)):
        ratio = b[name][0] / a[name][0] if a[name][0] else float("nan")
        rows.append((name, a[name][1], a[name][0], b[name][0], ratio))
    return rows


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer", "workloads"):
        for entry in spec[group]:
            check_name(entry["name"])
    return spec
