#!/usr/bin/env sh
# CI entry point: strict build (warnings as errors, ASan+UBSan), full test
# suite, clang-tidy (when installed), and a `voltcache verify` smoke check
# over the BBR link example's configuration. Usage:
#
#   tools/ci.sh [build-dir]        # default: build-ci
#
# Environment: VOLTCACHE_CI_SANITIZE=OFF disables sanitizers (e.g. for
# containers without ASan runtime support).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-ci"}
# Later stages cd into $build_dir and hand it to child processes as an
# environment variable, so a relative argument must be anchored first.
case "$build_dir" in /*) ;; *) build_dir="$PWD/$build_dir" ;; esac
sanitize=${VOLTCACHE_CI_SANITIZE:-"address;undefined"}

# announced_port LOG NAME: wait up to 10 s for "NAME: listening on
# 127.0.0.1:PORT" in LOG and print PORT (nothing if it never appears).
announced_port() {
    n=0
    while [ "$n" -lt 100 ]; do
        port=$(sed -n "s/^$2: listening on 127\.0\.0\.1:\([0-9][0-9]*\)\$/\1/p" \
            "$1" 2> /dev/null | head -n 1)
        [ -n "$port" ] && echo "$port" && return 0
        sleep 0.1
        n=$((n + 1))
    done
}

echo "== configure (WERROR=ON, SANITIZE=$sanitize) =="
cmake -B "$build_dir" -S "$repo_root" \
      -DVOLTCACHE_WERROR=ON \
      -DVOLTCACHE_SANITIZE="$sanitize" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "$build_dir" -j "$(nproc 2> /dev/null || echo 2)"

echo "== ctest =="
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc 2> /dev/null || echo 2)")

echo "== clang-tidy =="
"$repo_root/tools/run_tidy.sh" "$build_dir"

echo "== verify smoke: the icache_bbr_link example's tool chain =="
# The example links Tiny basicmath at seed 1 / 400mV; verify the same
# configuration statically, then demand the example agrees at runtime.
"$build_dir/tools/voltcache" verify basicmath --scale tiny --mv 400 --seed 1
"$build_dir/examples/icache_bbr_link" basicmath 1 400 > /dev/null
# A mismatched fault map must be rejected with a nonzero exit.
if "$build_dir/tools/voltcache" verify basicmath --scale tiny --mv 400 --seed 1 \
    --verify-seed 2 > /dev/null; then
    echo "ci: FAIL — voltcache verify accepted a mismatched fault map" >&2
    exit 1
fi

echo "== profile smoke: sweep self-profiler + forensics export =="
# A profiled sweep must explain where the time went (per-phase self times),
# emit worker-utilization counter events into the Chrome trace, and attach a
# forensics block to the sweep JSON.
prof_json="$build_dir/ci_prof_sweep.json"
prof_out="$build_dir/ci_prof.profile.json"
prof_trace="$build_dir/ci_prof.trace.json"
"$build_dir/tools/voltcache" sweep --trials 1 --benchmarks crc32 --scale tiny \
    --json "$prof_json" --profile "$prof_out" --trace "$prof_trace" > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$prof_out" > /dev/null
fi
if ! grep -q '"kind":"profile"' "$prof_out"; then
    echo "ci: FAIL — --profile did not write a profile document" >&2
    exit 1
fi
if ! grep -q '"ph":"C"' "$prof_trace"; then
    echo "ci: FAIL — profiled trace lacks worker-utilization counter events" >&2
    exit 1
fi
if ! grep -q '"forensics"' "$prof_json"; then
    echo "ci: FAIL — sweep JSON lacks the forensics block" >&2
    exit 1
fi
# Both renderers must accept their own artifacts.
"$build_dir/tools/voltcache" profile "$prof_out" > /dev/null
"$build_dir/tools/voltcache" profile "$prof_json" > /dev/null

echo "== bench smoke: tiny sweep with JSON + trace export =="
# A one-trial tiny sweep must produce parseable JSON with non-empty cells and
# a Chrome trace containing the FFW recenter and BBR fetch instrumentation.
sweep_json="$build_dir/ci_sweep.json"
sweep_trace="$build_dir/ci_sweep.trace.json"
"$build_dir/tools/voltcache" sweep --trials 1 --benchmarks crc32 --scale tiny \
    --json "$sweep_json" --trace "$sweep_trace" --progress > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$sweep_json" > /dev/null
    python3 -m json.tool "$sweep_trace" > /dev/null
fi
if ! grep -q '"scheme":"ffw+bbr"' "$sweep_json"; then
    echo "ci: FAIL — sweep JSON has no ffw+bbr cells" >&2
    exit 1
fi
if ! grep -q 'ffw.recenter' "$sweep_trace" || ! grep -q 'bbr.fetch' "$sweep_trace"; then
    echo "ci: FAIL — trace lacks FFW recenter / BBR fetch events" >&2
    exit 1
fi
# Instant events fill a lane of their own, so the --trace document keeps one
# leg span per leg the sweep ran (the cells' run counts sum to the legs).
if command -v python3 > /dev/null 2>&1; then
    python3 - "$sweep_trace" "$sweep_json" << 'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
sweep = json.load(open(sys.argv[2]))
spans = [e["args"]["span"] for e in trace["traceEvents"] if e["cat"] == "leg"]
legs = sum(cell["stats"]["runs"] for cell in sweep["cells"])
assert len(spans) == len(set(spans)) == legs, (len(spans), len(set(spans)), legs)
EOF
fi
# --trace writes the sweep job's timeline, so the trace renderer reads it.
if ! "$build_dir/tools/voltcache" trace "$sweep_trace" > /dev/null; then
    echo "ci: FAIL — voltcache trace rejects the sweep --trace file" >&2
    exit 1
fi

echo "== analytic gate: MC sweep vs closed-form FFW/BBR models =="
# The statistical oracle: a two-voltage sweep (including 400mV, where the
# fault distributions carry real mass) must agree with the closed-form
# models, and the JSON must carry the analytic block.
gate_json="$build_dir/ci_analytic.json"
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --mv 560,400 --analytic-check --json "$gate_json" > /dev/null
if ! grep -q '"analytic"' "$gate_json"; then
    echo "ci: FAIL — sweep JSON lacks the analytic cross-check block" >&2
    exit 1
fi
# Negative control: deliberately doubling the sampled fault rate (while the
# oracle keeps predicting from the physical model) must fail the gate.
if "$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --mv 560,400 --analytic-check --corrupt-mapgen 2.0 > /dev/null 2>&1; then
    echo "ci: FAIL — analytic gate accepted a corrupted fault-map generator" >&2
    exit 1
fi
# The closed-form renderer must accept the full Table II grid.
"$build_dir/tools/voltcache" model > /dev/null

echo "== determinism smoke: sweep JSON identical across --threads 1/0/2/8/16 =="
# The parallel executor reduces per-leg slots in canonical order, so the
# export must be byte-identical for any worker count, default (0) included.
# 16 workers exceed the cores of a small host, grow the shared pool, and
# split this grid into replay units down to one lane.
det_base="$build_dir/ci_det_t1.json"
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --threads 1 --json "$det_base" > /dev/null
for threads in 0 2 8 16; do
    det_json="$build_dir/ci_det_t$threads.json"
    "$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
        --scale tiny --threads "$threads" --json "$det_json" > /dev/null
    if ! cmp -s "$det_base" "$det_json"; then
        echo "ci: FAIL — sweep JSON differs between --threads 1 and --threads $threads" >&2
        exit 1
    fi
done

echo "== replay smoke: sweep JSON identical with and without --no-replay =="
# Trace-driven replay must be a pure fast path: the execution-driven sweep
# (--no-replay) is the ground truth and the replayed export must match it
# byte for byte. The determinism smoke above already produced the replayed
# JSON at --threads 1; reuse it. (ctest runs the same equivalence per-leg
# and per-field in test_replay, under the sanitizers configured above.)
noreplay_json="$build_dir/ci_noreplay.json"
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --threads 1 --no-replay --json "$noreplay_json" > /dev/null
if ! cmp -s "$det_base" "$noreplay_json"; then
    echo "ci: FAIL — sweep JSON differs between replayed and --no-replay runs" >&2
    exit 1
fi
# The same pair under an instruction cap that ends mid tape chunk
# (4099 = 16 x 256 + 3): capped recording, capped replay and capped
# execution must stop on the same instruction.
capped_json="$build_dir/ci_capped.json"
capped_noreplay_json="$build_dir/ci_capped_noreplay.json"
"$build_dir/tools/voltcache" sweep --scale tiny --threads 1 \
    --max-instructions 4099 --json "$capped_json" > /dev/null
"$build_dir/tools/voltcache" sweep --scale tiny --threads 1 \
    --max-instructions 4099 --no-replay --json "$capped_noreplay_json" > /dev/null
if ! cmp -s "$capped_json" "$capped_noreplay_json"; then
    echo "ci: FAIL — capped sweep JSON differs between replayed and --no-replay runs" >&2
    exit 1
fi

echo "== batch smoke: sweep JSON identical at odd --batch sizes =="
# Batched multi-map replay is a pure scheduling change: awkward batch sizes
# (1 lane, which is per-leg replay; 7 lanes, which splits a trial group
# unevenly) must reproduce the default export byte for byte.
# det_base above is the default (batched) --threads 1 export; this runs under
# whatever sanitizers this leg configured, so lane-state aliasing bugs surface
# here before the timing gates ever see them.
for lanes in 1 7; do
    batch_json="$build_dir/ci_batch_$lanes.json"
    "$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
        --scale tiny --threads 2 --batch "$lanes" --json "$batch_json" > /dev/null
    if ! cmp -s "$det_base" "$batch_json"; then
        echo "ci: FAIL — sweep JSON differs between default batching and --batch $lanes" >&2
        exit 1
    fi
done

echo "== telemetry smoke: live /metrics + /progress scrape, journal, identical JSON =="
# A sweep with the full telemetry plane attached (exporter on an ephemeral
# port + NDJSON leg journal) is scraped while it runs via `voltcache top`
# (no curl dependency). --telemetry-linger keeps the exporter up briefly so
# the scrape cannot lose the race on fast machines; we then wait for the
# natural exit so the JSON export is complete.
tele_json="$build_dir/ci_tele.json"
tele_plain="$build_dir/ci_tele_plain.json"
tele_journal="$build_dir/ci_tele.ndjson"
tele_log="$build_dir/ci_tele.log"
tele_metrics="$build_dir/ci_tele_metrics.txt"
tele_progress="$build_dir/ci_tele_progress.json"
tele_trace="$build_dir/ci_tele_trace.json"
tele_flight="$build_dir/ci_tele_flight.json"
rm -f "$tele_trace" "$tele_flight"
# The instrumented run carries the ENTIRE observability plane: exporter,
# capped journal, job tracing, and an armed flight recorder. The plain run
# below has none of it; the exports must still match byte for byte.
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --threads 2 --telemetry-port 0 --telemetry-linger 10 \
    --journal "$tele_journal" --journal-max-bytes 1048576 \
    --trace-job "$tele_trace" --flight-record "$tele_flight" \
    --json "$tele_json" > /dev/null 2> "$tele_log" &
tele_pid=$!
tele_port=$(announced_port "$tele_log" telemetry)
if [ -z "$tele_port" ]; then
    echo "ci: FAIL — sweep never announced its telemetry port" >&2
    kill "$tele_pid" 2> /dev/null || true
    exit 1
fi
"$build_dir/tools/voltcache" top "127.0.0.1:$tele_port" --once \
    --metrics-out "$tele_metrics" --progress-out "$tele_progress" > /dev/null
wait "$tele_pid"
if ! grep -q '^# TYPE voltcache_' "$tele_metrics"; then
    echo "ci: FAIL — /metrics is not Prometheus text exposition" >&2
    exit 1
fi
if ! grep -q '^voltcache_journal_events_total' "$tele_metrics"; then
    echo "ci: FAIL — /metrics lacks the journal event counter" >&2
    exit 1
fi
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$tele_progress" > /dev/null
    # Every journal line must be one valid JSON object (NDJSON).
    python3 - "$tele_journal" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines, "journal is empty"
phases = [e["ev"] for e in lines]
assert phases.count("enqueued") == phases.count("started") == phases.count("finished"), \
    "leg lifecycle events are unbalanced: %r" % {p: phases.count(p) for p in set(phases)}
EOF
fi
if ! grep -q '"ev":"finished"' "$tele_journal"; then
    echo "ci: FAIL — journal has no finished leg events" >&2
    exit 1
fi
# The healthy run collected a span per leg and rendered it as Chrome trace
# JSON — and never tripped the flight recorder.
if [ ! -s "$tele_trace" ]; then
    echo "ci: FAIL — traced sweep wrote no trace file" >&2
    exit 1
fi
if command -v python3 > /dev/null 2>&1; then
    python3 - "$tele_trace" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("kind") == "trace", doc.get("kind")
assert doc.get("spanCount", 0) > 0, "trace collected no spans"
assert doc.get("traceEvents"), "trace has no Chrome trace events"
EOF
    # The journal and the job trace are fed the same leg events: their
    # finished legs name the same legs under the same span ids, one per leg
    # the sweep ran (the cells' run counts sum to the grid's legs).
    python3 - "$tele_journal" "$tele_trace" "$tele_json" << 'EOF'
import json, sys
journal = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
trace = json.load(open(sys.argv[2]))
sweep = json.load(open(sys.argv[3]))
def leg(e):
    return (e["span"], e["benchmark"], e["scheme"], e["mv"], e["trial"])
finished = [leg(e) for e in journal if e["ev"] == "finished"]
spans = [leg(e["args"]) for e in trace["traceEvents"] if e["cat"].startswith("leg")]
legs = sum(cell["stats"]["runs"] for cell in sweep["cells"])
assert len(finished) == len(set(finished)) == legs, (len(finished), legs)
assert len(spans) == len(set(spans)) == legs, (len(spans), legs)
assert set(finished) == set(spans), "journal and trace disagree on %r" % (
    set(finished) ^ set(spans))
EOF
fi
"$build_dir/tools/voltcache" trace "$tele_trace" > /dev/null
# The recorder pre-opens its file at install (dumping must be allocation-
# free), so a healthy run leaves it present but empty.
if [ -s "$tele_flight" ]; then
    echo "ci: FAIL — flight recorder dumped on a healthy sweep" >&2
    exit 1
fi
# Observation must never change the result: the same sweep without any
# telemetry, tracing, or flight recorder produces a byte-identical export.
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --threads 2 --json "$tele_plain" > /dev/null
if ! cmp -s "$tele_json" "$tele_plain"; then
    echo "ci: FAIL — sweep JSON differs with the telemetry plane attached" >&2
    exit 1
fi

echo "== flight recorder negative control: induced leg failure leaves a parseable dump =="
# Trip a VC_CHECK at the Nth leg with the recorder armed. The sweep must
# fail (nonzero exit), the dump must be one well-formed JSON object naming
# the contract, carrying ring events and showing the coordinator inside its
# "sweep" span, and the renderer must read it.
flight_dump="$build_dir/ci_flight.json"
rm -f "$flight_dump"
if "$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32 \
    --scale tiny --threads 2 --fail-at-leg 3 --flight-record "$flight_dump" \
    --json "$build_dir/ci_flight_sweep.json" > /dev/null 2>&1; then
    echo "ci: FAIL — --fail-at-leg did not fail the sweep" >&2
    exit 1
fi
if [ ! -s "$flight_dump" ]; then
    echo "ci: FAIL — crashing sweep left no flight dump" >&2
    exit 1
fi
if command -v python3 > /dev/null 2>&1; then
    python3 - "$flight_dump" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("kind") == "flight", doc.get("kind")
assert doc.get("reason") == "Check", doc.get("reason")
assert "failAtLeg" in doc.get("detail", ""), doc.get("detail")
assert doc.get("events"), "flight dump captured no ring events"
assert any("sweep" in t.get("spans", []) for t in doc.get("threads", [])), \
    "flight dump shows no thread inside the coordinator's sweep span"
EOF
fi
"$build_dir/tools/voltcache" trace "$flight_dump" > /dev/null

echo "== serve smoke: daemon round trip, warm hits, byte-identical JSON, graceful stop, store reload =="
# Launch the sweep service on an ephemeral port with an on-disk store, submit
# the same small sweep twice, and require: (1) both served documents are
# byte-identical to the direct CLI export (`sweep` and `submit` read the
# job through one path, so the voltages and worker count travel too),
# (2) the second submission is served (almost) entirely from the
# content-addressed store, (3) SIGTERM drains and exits 0, (4) a daemon
# restarted on the same store directory serves a third submission entirely
# from the reloaded segment. Runs under whatever sanitizers this leg
# configured.
serve_dir="$build_dir/ci_serve_store"
serve_log="$build_dir/ci_serve.log"
serve_direct="$build_dir/ci_serve_direct.json"
serve_first="$build_dir/ci_serve_first.json"
serve_second="$build_dir/ci_serve_second.json"
serve_summary="$build_dir/ci_serve_summary.txt"
rm -rf "$serve_dir"
"$build_dir/tools/voltcache" serve --port 0 --store "$serve_dir" \
    --telemetry-port 0 > /dev/null 2> "$serve_log" &
serve_pid=$!
serve_port=$(announced_port "$serve_log" serve)
if [ -z "$serve_port" ]; then
    echo "ci: FAIL — serve never announced its port" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
"$build_dir/tools/voltcache" sweep --trials 2 --benchmarks crc32,basicmath \
    --scale tiny --mv 560,400 --threads 2 --json "$serve_direct" > /dev/null
"$build_dir/tools/voltcache" submit "127.0.0.1:$serve_port" --op sweep \
    --trials 2 --benchmarks crc32,basicmath --scale tiny --mv 560,400 --threads 2 \
    --json "$serve_first" > /dev/null
"$build_dir/tools/voltcache" submit "127.0.0.1:$serve_port" --op sweep \
    --trials 2 --benchmarks crc32,basicmath --scale tiny --mv 560,400 --threads 2 \
    --json "$serve_second" > "$serve_summary"
for served in "$serve_first" "$serve_second"; do
    if ! cmp -s "$serve_direct" "$served"; then
        echo "ci: FAIL — served sweep JSON differs from the direct CLI export" >&2
        kill "$serve_pid" 2> /dev/null || true
        exit 1
    fi
done
# The summary line reports hitRate=H.HHHH for the job; the second submission
# must be >= 90% store hits.
if ! awk -F'hitRate=' '/^submit:/ { split($2, f, " "); if (f[1] >= 0.90) found = 1 }
                       END { exit found ? 0 : 1 }' "$serve_summary"; then
    echo "ci: FAIL — second submission was not served from the store:" >&2
    cat "$serve_summary" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
# Every submission is traced end to end: the summary echoes the job's trace
# id and the daemon serves the span-tree index over /trace on its
# telemetry port.
if ! grep -q 'trace=' "$serve_summary"; then
    echo "ci: FAIL — submit summary does not echo the trace id" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
# The client reports its own wall time next to the server's elapsed time; a
# gap between the two is a transport stall.
if ! grep -q 'wall=' "$serve_summary"; then
    echo "ci: FAIL — submit summary does not report the client wall time" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
serve_tele_port=$(sed -n 's/^telemetry: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "$serve_log" 2> /dev/null | head -n 1)
if [ -z "$serve_tele_port" ]; then
    echo "ci: FAIL — serve never announced its telemetry port" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
if ! "$build_dir/tools/voltcache" trace "127.0.0.1:$serve_tele_port" \
    | grep -q 'spans'; then
    echo "ci: FAIL — /trace index is not served or renders empty" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci: FAIL — serve did not exit 0 on SIGTERM" >&2
    exit 1
fi
# Restart on the same store directory: the reloaded segment must answer a
# third submission entirely (no store misses), byte-identical to the direct
# export.
serve_third="$build_dir/ci_serve_third.json"
: > "$serve_log"
"$build_dir/tools/voltcache" serve --port 0 --store "$serve_dir" \
    > /dev/null 2> "$serve_log" &
serve_pid=$!
serve_port=$(announced_port "$serve_log" serve)
if [ -z "$serve_port" ]; then
    echo "ci: FAIL — restarted serve never announced its port" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
"$build_dir/tools/voltcache" submit "127.0.0.1:$serve_port" --op sweep \
    --trials 2 --benchmarks crc32,basicmath --scale tiny --mv 560,400 --threads 2 \
    --json "$serve_third" > "$serve_summary"
if ! cmp -s "$serve_direct" "$serve_third"; then
    echo "ci: FAIL — sweep JSON served from the reloaded store differs" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
if ! grep -q '^submit: .* misses=0 hitRate=1.0000 ' "$serve_summary"; then
    echo "ci: FAIL — the restarted daemon did not serve from the reloaded store:" >&2
    cat "$serve_summary" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci: FAIL — restarted serve did not exit 0 on SIGTERM" >&2
    exit 1
fi

echo "== perf smoke: micro benches export BENCH_perf.json =="
# Exercises the obs primitives (counter add, trace record, span open/close)
# under whatever sanitizers this leg configured, and produces the fresh
# BENCH_perf.json whose within-run milestones are gated below in
# unsanitized runs.
(cd "$build_dir" && VOLTCACHE_BENCH_DIR="$build_dir" \
    ./bench/bench_micro --benchmark_min_time=0.05 > /dev/null)
if [ ! -s "$build_dir/BENCH_perf.json" ]; then
    echo "ci: FAIL — bench_micro did not write BENCH_perf.json" >&2
    exit 1
fi
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$build_dir/BENCH_perf.json" > /dev/null
fi

echo "== bench gate: figure artifacts against committed baselines, timing milestones within run =="
# Figure artifacts are deterministic at fixed trials/scale/benchmarks, so
# compare them against the committed baselines on every run. (ctest covers
# bench_check itself on the fixtures under tools/testdata.)
for artifact in fig10 fig12; do
    VOLTCACHE_BENCH_DIR="$build_dir" VOLTCACHE_TRIALS=2 VOLTCACHE_SCALE=tiny \
        VOLTCACHE_BENCHMARKS=crc32,basicmath \
        "$build_dir/bench/bench_$artifact" > /dev/null
    "$build_dir/tools/bench_check" \
        --baseline "$repo_root/bench/baselines/BENCH_$artifact.json" \
        --fresh "$build_dir/BENCH_$artifact.json"
done
# No absolute rate is compared across runs: timings are machine- and
# sanitizer-dependent. In unsanitized runs, two within-run milestones take
# both of their metrics from the SAME fresh BENCH_perf.json, each pair of
# sides timed in alternating pairs, so they measure the engine rather than
# the host.
#   * Batched replay: the default sweep's single-thread legs/sec with replay
#     must stay at least 1.10x the same tiny sweep's rate without replay
#     (execution-driven legs). It reads ~1.25-1.45x on a shared 4-vCPU
#     host; 1.10x only catches the milestone being *lost*, not noise.
#   * Serve: a warm store must serve legs at least 5x the cold
#     (simulate-and-populate) rate (measured ~300x; 5x only catches the
#     cache being lost).
if [ "$sanitize" = "OFF" ]; then
    "$build_dir/tools/bench_check" \
        --baseline "$build_dir/BENCH_perf.json" \
        --fresh "$build_dir/BENCH_perf.json" \
        --speedup "sweep.exec_legs_per_sec/threads1:sweep.legs_per_sec/threads1:1.10" \
        --speedup "serve.cold_legs_per_sec:serve.warm_legs_per_sec:5.0"
else
    echo "   (skipping the timing milestones: sanitizers distort timings;"
    echo "    rerun with VOLTCACHE_CI_SANITIZE=OFF to enforce them)"
fi

echo "== ci: all checks passed =="
