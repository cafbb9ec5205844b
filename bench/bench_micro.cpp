// Google-benchmark microbenchmarks of the library's hot paths: BIST, scheme
// access loops, observability primitives, and one end-to-end FFW+BBR leg.
// Fault-map generation, the BBR link, simulator throughput and replay per
// lane-instruction are perfbench's per-layer metrics, not repeated here. google-benchmark's own
// `--benchmark_out=FILE --benchmark_out_format=json` writes their numbers.
//
// After them, main() writes BENCH_perf.json (see bench_export.h) from a few
// within-run probes: the two milestone pairs that tools/ci.sh gates with
// `bench_check --speedup` (batched replay >= 1.10x execution-driven sweep
// legs/sec, warm store >= 5x cold), each timed in alternating pairs, plus
// the trace recording and trace-context overheads. Nothing here compares an
// absolute rate across runs; perfbench/ does that, on one host, in
// alternating pairs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "bench_export.h"
#include "compiler/passes.h"
#include "core/replay.h"
#include "core/sweep.h"
#include "core/system.h"
#include "faults/bist.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "schemes/factory.h"
#include "serve/store.h"
#include "workload/workload.h"

namespace {

using namespace voltcache;
using voltcache::literals::operator""_mV;

void BM_BistMarch(benchmark::State& state) {
    Rng rng(2);
    DefectiveSramArray array(1024, 8);
    array.injectRandomDefects(rng, 1e-2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(Bist::run(array));
    }
    state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BistMarch);

/// ns per L1 access for one scheme: a sequential 64KB read sweep through
/// the D-cache `makeSchemes(kind, ...)` builds at a 400mV chip, called on
/// the concrete L1Core type as the replay kernel calls it. Registered once
/// per SchemeKind in main() as BM_L1ReadLoop/<scheme name>.
void BM_L1ReadLoop(benchmark::State& state, SchemeKind kind) {
    const FaultMapGenerator generator;
    Rng rng(3);
    const CacheOrganization org;
    const FaultMap map = generator.generate(rng, 400_mV, org.lines(), org.wordsPerBlock());
    L2Cache l2;
    const SchemePair pair = makeSchemes(kind, org, map, map, l2);
    withConcreteSchemes(kind, pair, [&state](auto& /*icache*/, auto& dcache) {
        std::uint32_t addr = 0;
        for (auto _ : state) {
            benchmark::DoNotOptimize(dcache.read(addr));
            addr = (addr + 4) % (64 * 1024);
        }
    });
    state.SetItemsProcessed(state.iterations());
}

/// An open job whose timeline takes instant events, for the traced benches.
/// The store is cleared on exit, so repeated runs retain no full rings.
class InstantTraceJob {
public:
    InstantTraceJob() { obs::JobTraceStore::global().beginJob("bench", trace_, true); }
    ~InstantTraceJob() { obs::JobTraceStore::global().clear(); }
    InstantTraceJob(const InstantTraceJob&) = delete;
    InstantTraceJob& operator=(const InstantTraceJob&) = delete;

private:
    obs::TraceContext trace_ = obs::makeRootContext("bench");
};

// The trace-enabled twin of BM_L1ReadLoop/ffw+bbr: same access pattern with
// instant events collected, so `(traced - plain) / plain` bounds the tracing
// overhead. With nothing collecting the only cost on this path is one
// relaxed atomic load (see BM_ObsTraceDisabled) plus the recenter counter —
// the acceptance bar is <= 1% there.
void BM_FfwReadLoopTraced(benchmark::State& state) {
    const InstantTraceJob job;
    BM_L1ReadLoop(state, SchemeKind::FfwBbr);
}
BENCHMARK(BM_FfwReadLoopTraced);

void BM_EndToEndSystemLeg(benchmark::State& state) {
    const Module module = buildBenchmark("basicmath", WorkloadScale::Tiny);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig config;
        config.scheme = SchemeKind::FfwBbr;
        config.op = DvfsTable::at(400_mV);
        config.faultMapSeed = seed++;
        benchmark::DoNotOptimize(simulateSystem(module, &bbrModule, config));
    }
}
BENCHMARK(BM_EndToEndSystemLeg)->Unit(benchmark::kMillisecond);

// Cost of bumping a pre-resolved counter handle (one relaxed atomic add on
// a per-thread cell) — the unit of overhead each instrumented hot path pays.
void BM_ObsCounterAdd(benchmark::State& state) {
    obs::Counter counter =
        obs::MetricsRegistry::global().counter("bench.counter_add");
    for (auto _ : state) {
        counter.add();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

// Cost of the trace-point guard when nothing collects instant events: a
// single relaxed atomic load and a branch. This is what every instrumented
// path pays in a production sweep.
void BM_ObsTraceDisabled(benchmark::State& state) {
    for (auto _ : state) {
        if (obs::instantEventsOn()) obs::traceInstant("bench.never", "bench");
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceDisabled);

// Cost of an armed trace point: the recording thread stores the event into
// its own lock-free instant lane and publishes it, with no mutex.
void BM_ObsTraceRecord(benchmark::State& state) {
    const InstantTraceJob job;
    for (auto _ : state) {
        if (obs::instantEventsOn()) obs::traceInstant("bench.event", "bench", {{"i", 1}});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceRecord);

// Cost of a profiling span when the profiler is off — the price every
// instrumented phase pays in a production sweep. Must stay within noise of
// a bare relaxed atomic load (the span constructor's fast-path bail).
void BM_SpanDisabled(benchmark::State& state) {
    obs::Profiler::setEnabled(false);
    for (auto _ : state) {
        const obs::Span span("bench.disabled");
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

// Cost of a live span: two steady_clock reads plus the per-thread stack and
// shard bookkeeping. Bounds the self-profiler's distortion of the phases it
// measures.
void BM_SpanEnabled(benchmark::State& state) {
    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    for (auto _ : state) {
        const obs::Span span("bench.enabled");
        benchmark::DoNotOptimize(&span);
    }
    obs::Profiler::setEnabled(false);
    obs::Profiler::reset();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

// --- BENCH_perf.json: within-run probes ---

/// The sweep every milestone probe runs: 2 benchmarks x 2 points x 2
/// schemes x 16 trials = 128 legs. Trials >= 16 so the record-once and
/// decode-once costs are amortized the way a real Monte Carlo grid
/// amortizes them: the trace pays for itself from the second trial on, and
/// a trial group fills a whole batch (core/replay.cpp replayBatch) instead
/// of a sliver of one. BENCH_perf.json's header is stamped with it.
SweepConfig tinySweepConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 16;
    config.scale = WorkloadScale::Tiny;
    config.threads = 1;
    return config;
}

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

voltcache::bench::BenchMetric metricOf(const char* name, const RunningStats& stats,
                                       const char* unit) {
    voltcache::bench::BenchMetric metric;
    metric.name = name;
    metric.value = stats.mean();
    metric.ciHalfWidth = confidenceInterval(stats).halfWidth;
    metric.unit = unit;
    metric.samples = stats.count();
    return metric;
}

/// Times the two sides of a milestone ratio in `pairs` adjacent pairs, the
/// side that runs first alternating from pair to pair, so host drift (a
/// frequency step, a busy neighbour) lands on both sides alike instead of
/// on whichever block of reps ran later. One untimed call of each side goes
/// first, so neither side's first sample pays the process's first-call
/// costs (page faults, cold caches). Each call of a side sweeps `legs`
/// legs; returns each side's per-pair legs/sec.
template <class SideA, class SideB>
std::pair<RunningStats, RunningStats> alternatingPairs(int pairs, double legs, SideA&& a,
                                                       SideB&& b) {
    a();
    b();
    RunningStats rateA;
    RunningStats rateB;
    const auto time = [legs](auto& side, RunningStats& rate) {
        const auto start = Clock::now();
        side();
        rate.add(legs / secondsSince(start));
    };
    for (int pair = 0; pair < pairs; ++pair) {
        if (pair % 2 == 0) {
            time(a, rateA);
            time(b, rateB);
        } else {
            time(b, rateB);
            time(a, rateA);
        }
    }
    return {rateA, rateB};
}

std::vector<voltcache::bench::BenchMetric> perfProbe() {
    constexpr int kPerfReps = 5;
    // Even, so each side runs first equally often. Timing the same sweep on
    // both sides, 6 pairs read ratios up to 1.09-1.17 on a shared 4-vCPU
    // host, too close to the 1.10x replay bound to catch a lost milestone;
    // 12 pairs stayed within 0.91-1.05.
    constexpr int kPairs = 12;
    std::vector<voltcache::bench::BenchMetric> metrics;
    const SweepConfig tiny = tinySweepConfig();
    const auto legs = static_cast<double>(detail::planSweep(tiny).legs.size());

    // Milestone: the default (record-once, batched replay) serial sweep
    // against the same sweep execution-driven (`--no-replay`).
    {
        SweepConfig executed = tiny;
        executed.useReplay = false;
        const auto [replayRate, execRate] = alternatingPairs(
            kPairs, legs, [&tiny] { benchmark::DoNotOptimize(runSweep(tiny)); },
            [&executed] { benchmark::DoNotOptimize(runSweep(executed)); });
        metrics.push_back(metricOf("sweep.legs_per_sec/threads1", replayRate, "1/s"));
        metrics.push_back(metricOf("sweep.exec_legs_per_sec/threads1", execRate, "1/s"));
    }

    // Recording overhead: fractional slowdown of an execution-driven run
    // with a TraceRecorder attached — the one-time cost each benchmark pays
    // to unlock replayed trials. The overhead is a difference of two
    // similar durations, so single timings drown in scheduler noise: each
    // sample is the min-of-3 of both sides (the min estimates the
    // noise-free duration), and it takes 25 samples, so the exported
    // confidence interval is small against the mean instead of dwarfing it.
    {
        const Module module = buildBenchmark("basicmath", WorkloadScale::Tiny);
        constexpr int kOverheadReps = 5 * kPerfReps;
        constexpr int kMinOf = 3;
        RunningStats frac;
        for (int rep = 0; rep < kOverheadReps; ++rep) {
            SystemConfig config;
            config.scheme = SchemeKind::Conventional760;
            double plain = std::numeric_limits<double>::infinity();
            for (int i = 0; i < kMinOf; ++i) {
                const auto start = Clock::now();
                benchmark::DoNotOptimize(simulateSystem(module, nullptr, config));
                plain = std::min(plain, secondsSince(start));
            }

            TraceRecorder recorder;
            config.observers.push_back(&recorder);
            double recorded = std::numeric_limits<double>::infinity();
            for (int i = 0; i < kMinOf; ++i) {
                const auto start = Clock::now();
                benchmark::DoNotOptimize(simulateSystem(module, nullptr, config));
                recorded = std::min(recorded, secondsSince(start));
            }
            frac.add((recorded - plain) / plain);
        }
        metrics.push_back(metricOf("trace.record_overhead_frac", frac, "frac"));
    }

    // Milestone: legs/sec through the content-addressed store, cold (a
    // fresh store per call, so every leg simulates and pays the insert
    // path) against warm (one shared store, which the helper's untimed
    // first call fills, so every timed leg is a hit: digest + lookup +
    // reduction, no recording, no simulation).
    {
        SweepConfig warm = tiny;
        serve::LegStore primed({.byteBudget = 64ull << 20, .directory = ""});
        warm.resultSource = &primed;
        const auto [coldRate, warmRate] = alternatingPairs(
            kPairs, legs,
            [&tiny] {
                serve::LegStore store({.byteBudget = 64ull << 20, .directory = ""});
                SweepConfig cold = tiny;
                cold.resultSource = &store;
                benchmark::DoNotOptimize(runSweep(cold));
            },
            [&warm] { benchmark::DoNotOptimize(runSweep(warm)); });
        metrics.push_back(metricOf("serve.cold_legs_per_sec", coldRate, "1/s"));
        metrics.push_back(metricOf("serve.warm_legs_per_sec", warmRate, "1/s"));
    }

    // Per-leg trace stamping cost: the exact work a traced sweep leg adds —
    // derive the deterministic child span id from the root context and check
    // the store's relaxed "is anyone collecting" guard. It measures the
    // claim that tracing is cheap enough to leave on (two short SHA-256
    // compressions plus one atomic load, sub-microsecond, orders of
    // magnitude below a leg simulation); nothing gates the number.
    {
        const obs::TraceContext context = obs::makeRootContext("bench");
        constexpr int kStampsPerRep = 100000;
        RunningStats nanos;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            for (int i = 0; i < kStampsPerRep; ++i) {
                auto span = obs::childSpanId(context, static_cast<std::uint64_t>(i));
                benchmark::DoNotOptimize(span);
                bool collecting = obs::JobTraceStore::collecting();
                benchmark::DoNotOptimize(collecting);
            }
            nanos.add(secondsSince(start) * 1e9 / kStampsPerRep);
        }
        metrics.push_back(metricOf("trace.ctx_overhead_ns", nanos, "ns"));
    }
    return metrics;
}

} // namespace

int main(int argc, char** argv) {
    for (const SchemeKind kind : kAllSchemes) {
        const std::string name = "BM_L1ReadLoop/" + std::string(schemeName(kind));
        benchmark::RegisterBenchmark(name.c_str(), BM_L1ReadLoop, kind);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    voltcache::bench::writeBenchJson("perf", tinySweepConfig(), perfProbe());
    return 0;
}
