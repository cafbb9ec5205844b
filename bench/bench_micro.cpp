// Google-benchmark microbenchmarks of the library's hot paths: fault-map
// generation, BIST, scheme access loops, BBR linking, observability
// primitives, and end-to-end simulation throughput. These guard the Monte
// Carlo harness's performance (a full paper-scale sweep runs ~100k
// simulations). A custom reporter mirrors every run into BENCH_micro.json
// (see bench_export.h) so CI can diff the numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <string>

#include "bench_export.h"
#include "compiler/passes.h"
#include "core/replay.h"
#include "core/sweep.h"
#include "core/system.h"
#include "cpu/simulator.h"
#include "faults/bist.h"
#include "linker/linker.h"
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

void BM_FaultMapGeneration(benchmark::State& state) {
    const FaultMapGenerator generator;
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(generator.generate(rng, 400_mV, 1024, 8));
    }
    state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_FaultMapGeneration);

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

// The trace-enabled twin of BM_L1ReadLoop/ffw+bbr: same access pattern with
// a sink attached, so `(traced - plain) / plain` bounds the tracing
// overhead. With NO sink attached the only cost on this path is one relaxed
// atomic load (see BM_ObsTraceDisabled) plus the recenter counter — the
// acceptance bar is <= 1% there.
void BM_FfwReadLoopTraced(benchmark::State& state) {
    obs::TraceSink sink;
    const obs::ScopedTraceSink guard(&sink);
    BM_L1ReadLoop(state, SchemeKind::FfwBbr);
}
BENCHMARK(BM_FfwReadLoopTraced);

void BM_BbrLink(benchmark::State& state) {
    Module module = buildBenchmark("basicmath", WorkloadScale::Tiny);
    applyBbrTransforms(module);
    const FaultMapGenerator generator;
    Rng rng(4);
    const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    for (auto _ : state) {
        benchmark::DoNotOptimize(link(module, options));
    }
}
BENCHMARK(BM_BbrLink);

void BM_SimulatorThroughput(benchmark::State& state) {
    const Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
    const LinkOutput linked = link(module);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        L2Cache l2;
        CacheOrganization org;
        ConventionalCache icache(org, l2);
        ConventionalCache dcache(org, l2);
        Simulator sim(linked.image, module.data, icache, dcache);
        const RunStats stats = sim.run();
        instructions += stats.instructions;
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

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

/// Per-leg replay: one FFW+BBR leg at 400mV as a one-lane replayBatch.
SystemResult replayLeg(const Module& bbrModule, const TraceCache& traces,
                       std::uint64_t seed) {
    BatchLane lane;
    lane.config.scheme = SchemeKind::FfwBbr;
    lane.config.op = DvfsTable::at(400_mV);
    lane.config.faultMapSeed = seed;
    replayBatch(&bbrModule, traces, std::span<BatchLane>(&lane, 1));
    return lane.result;
}

// Trace-driven twin of BM_EndToEndSystemLeg: identical leg configuration,
// evaluated as a one-lane replayBatch() from pre-recorded traces. The ratio
// of the two is the per-leg speedup of the record-once / replay-many engine.
void BM_ReplayLegs(benchmark::State& state) {
    const Module module = buildBenchmark("basicmath", WorkloadScale::Tiny);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);
    TraceCache traces;
    SystemConfig record;
    record.scheme = SchemeKind::Conventional760;
    SystemResult ignored;
    traces.plain = recordReplaySource(module, record, 0, ignored);
    traces.bbr = recordReplaySource(bbrModule, record, 0, ignored);
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(replayLeg(bbrModule, traces, seed++));
}
BENCHMARK(BM_ReplayLegs)->Unit(benchmark::kMillisecond);

// --- end-to-end sweep throughput ---

/// Small fixed sweep used for the legs/sec benchmarks: 2 benchmarks x
/// 2 points x 2 schemes x 16 trials = 128 legs per sweep. Trials >= 16 so
/// the record-once and decode-once costs are amortized the way a real Monte
/// Carlo grid amortizes them: the trace pays for itself from the second
/// trial on, and a trial group fills a whole batch (core/replay.cpp
/// replayBatch) instead of a sliver of one.
SweepConfig tinySweepConfig(unsigned threads) {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 16;
    config.scale = WorkloadScale::Tiny;
    config.threads = threads;
    return config;
}

std::size_t sweepLegCount(const SweepConfig& config) {
    return detail::planSweep(config).legs.size();
}

/// Arg(0) = hardware concurrency (runSweep's own default); Arg(1) = serial.
void BM_SweepLegs(benchmark::State& state) {
    const SweepConfig config = tinySweepConfig(static_cast<unsigned>(state.range(0)));
    std::uint64_t legs = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runSweep(config));
        legs += sweepLegCount(config);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(legs));
}
BENCHMARK(BM_SweepLegs)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

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

// Cost of the trace-point guard when no sink is attached: a single relaxed
// atomic load and a branch. This is what every instrumented path pays in a
// production sweep.
void BM_ObsTraceDisabled(benchmark::State& state) {
    for (auto _ : state) {
        if (obs::TraceSink* sink = obs::traceSink()) {
            sink->record("bench.never", "bench", {});
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceDisabled);

// Cost of an armed trace point: ring-slot write under the sink mutex.
void BM_ObsTraceRecord(benchmark::State& state) {
    obs::TraceSink sink;
    const obs::ScopedTraceSink guard(&sink);
    for (auto _ : state) {
        if (obs::TraceSink* active = obs::traceSink()) {
            active->record("bench.event", "bench", {{"i", 1}});
        }
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

/// ConsoleReporter that also captures every iteration run, so main() can
/// export BENCH_micro.json after the normal console output.
class ExportingReporter : public benchmark::ConsoleReporter {
  public:
    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
            voltcache::bench::BenchMetric metric;
            metric.name = run.benchmark_name();
            metric.value = run.GetAdjustedRealTime();
            metric.unit = benchmark::GetTimeUnitString(run.time_unit);
            metric.samples = static_cast<std::uint64_t>(run.iterations);
            metrics_.push_back(metric);
        }
        ConsoleReporter::ReportRuns(reports);
    }

    [[nodiscard]] const std::vector<voltcache::bench::BenchMetric>& metrics() const {
        return metrics_;
    }

  private:
    std::vector<voltcache::bench::BenchMetric> metrics_;
};

/// Direct throughput probes for the headline performance artifact
/// (BENCH_perf.json): each rate is sampled kPerfReps times so the export
/// carries a confidence-interval half-width alongside the mean. These guard
/// the sweep executor's wall-clock budget the way BENCH_micro guards the
/// individual hot paths.
std::vector<voltcache::bench::BenchMetric> perfProbe() {
    using Clock = std::chrono::steady_clock;
    constexpr int kPerfReps = 5;
    const auto secondsSince = [](Clock::time_point start) {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const auto metricOf = [](const char* name, const RunningStats& stats) {
        voltcache::bench::BenchMetric metric;
        metric.name = name;
        metric.value = stats.mean();
        metric.ciHalfWidth = confidenceInterval(stats).halfWidth;
        metric.unit = "1/s";
        metric.samples = stats.count();
        return metric;
    };
    std::vector<voltcache::bench::BenchMetric> metrics;

    // Simulator steps per second (conventional caches, no faults).
    {
        const Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
        const LinkOutput linked = link(module);
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            L2Cache l2;
            CacheOrganization org;
            ConventionalCache icache(org, l2);
            ConventionalCache dcache(org, l2);
            Simulator sim(linked.image, module.data, icache, dcache);
            const RunStats stats = sim.run();
            rate.add(static_cast<double>(stats.instructions) / secondsSince(start));
        }
        metrics.push_back(metricOf("sim.steps_per_sec", rate));
    }

    // Fault-map generations per second at the deepest operating point.
    {
        const FaultMapGenerator generator;
        Rng rng(1);
        constexpr int kMapsPerRep = 200;
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            for (int i = 0; i < kMapsPerRep; ++i) {
                benchmark::DoNotOptimize(generator.generate(rng, 400_mV, 1024, 8));
            }
            rate.add(kMapsPerRep / secondsSince(start));
        }
        metrics.push_back(metricOf("faultmap.generations_per_sec", rate));
    }

    // End-to-end sweep legs per second on the default (record-once, batched
    // replay) path: the thread-scaling curve {1, 2, 4, all} plus the
    // parallel efficiency at all threads. runSweep clamps its workers to
    // the host and the schedulable units, so on a small machine the higher
    // points collapse onto the hardware limit; the efficiency metric
    // divides by the worker count actually used, so it stays meaningful
    // (and is 1.0 by construction on a single-core host).
    double serialLegsPerSec = 0.0;
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
        SweepConfig config = tinySweepConfig(threads);
        unsigned workersUsed = 1;
        config.onProgress = [&workersUsed](const SweepProgress& progress) {
            workersUsed = std::max(workersUsed, progress.workers);
        };
        const auto legs = static_cast<double>(sweepLegCount(config));
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            benchmark::DoNotOptimize(runSweep(config));
            rate.add(legs / secondsSince(start));
        }
        const char* name = threads == 1   ? "sweep.legs_per_sec/threads1"
                           : threads == 2 ? "sweep.legs_per_sec/threads2"
                           : threads == 4 ? "sweep.legs_per_sec/threads4"
                                          : "sweep.legs_per_sec/threads_all";
        metrics.push_back(metricOf(name, rate));
        if (threads == 1) serialLegsPerSec = rate.mean();
        if (threads == 0 && serialLegsPerSec > 0.0) {
            voltcache::bench::BenchMetric efficiency;
            efficiency.name = "sweep.parallel_efficiency";
            efficiency.value =
                rate.mean() / (static_cast<double>(workersUsed) * serialLegsPerSec);
            efficiency.ciHalfWidth =
                confidenceInterval(rate).halfWidth /
                (static_cast<double>(workersUsed) * serialLegsPerSec);
            efficiency.unit = "frac";
            efficiency.samples = rate.count();
            metrics.push_back(efficiency);
        }
    }

    // The same serial sweep execution-driven (`--no-replay`): the PR 3
    // baseline the replay speedup is measured against.
    {
        SweepConfig config = tinySweepConfig(1);
        config.useReplay = false;
        const auto legs = static_cast<double>(sweepLegCount(config));
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            benchmark::DoNotOptimize(runSweep(config));
            rate.add(legs / secondsSince(start));
        }
        metrics.push_back(metricOf("sweep.exec_legs_per_sec/threads1", rate));
    }

    // The same serial execution-driven sweep with the telemetry plane
    // explicitly disabled (no onProgress / onLegEvent hooks): guards the leg
    // hot path — an unset hook must cost nothing, so this metric must track
    // sweep.exec_legs_per_sec/threads1 release after release.
    {
        SweepConfig config = tinySweepConfig(1);
        config.useReplay = false;
        config.onProgress = nullptr;
        config.onLegEvent = nullptr;
        const auto legs = static_cast<double>(sweepLegCount(config));
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            benchmark::DoNotOptimize(runSweep(config));
            rate.add(legs / secondsSince(start));
        }
        metrics.push_back(metricOf("sweep.exec_legs_per_sec/telemetry_off", rate));
    }

    // Raw per-leg replay (one-lane replayBatch) legs per second (FFW+BBR at
    // 400mV — the most expensive replayed leg: per-trial verified link +
    // live predictor).
    {
        const Module module = buildBenchmark("basicmath", WorkloadScale::Tiny);
        Module bbrModule = module;
        applyBbrTransforms(bbrModule);
        TraceCache traces;
        SystemConfig record;
        record.scheme = SchemeKind::Conventional760;
        SystemResult ignored;
        traces.plain = recordReplaySource(module, record, 0, ignored);
        traces.bbr = recordReplaySource(bbrModule, record, 0, ignored);
        constexpr int kLegsPerRep = 20;
        std::uint64_t seed = 1;
        RunningStats rate;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            for (int i = 0; i < kLegsPerRep; ++i) {
                benchmark::DoNotOptimize(replayLeg(bbrModule, traces, seed++));
            }
            rate.add(kLegsPerRep / secondsSince(start));
        }
        metrics.push_back(metricOf("replay.legs_per_sec", rate));
    }

    // Recording overhead: fractional slowdown of an execution-driven run
    // with a TraceRecorder attached — the one-time cost each benchmark pays
    // to unlock replayed trials. The overhead is a difference of two
    // similar durations, so single timings drown in scheduler noise: each
    // sample is the min-of-3 of both sides (the min estimates the
    // noise-free duration), and the rep count is 5x the rate probes', so
    // the exported confidence interval is small against the mean instead
    // of dwarfing it.
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
        voltcache::bench::BenchMetric metric;
        metric.name = "trace.record_overhead_frac";
        metric.value = frac.mean();
        metric.ciHalfWidth = confidenceInterval(frac).halfWidth;
        metric.unit = "frac";
        metric.samples = frac.count();
        metrics.push_back(metric);
    }

    // The serve-layer headline: legs per second through the content-
    // addressed store, cold (every leg simulates and populates) vs warm
    // (every leg is a store hit — no trace recording, no simulation). The
    // warm/cold ratio is the CI speedup gate (bench_check --speedup): both
    // rates come from the same run on the same machine, so the ratio is
    // machine-independent.
    {
        // Cold: a fresh store per rep, so every rep pays full simulation
        // plus the insert path.
        SweepConfig config = tinySweepConfig(1);
        const auto legs = static_cast<double>(sweepLegCount(config));
        RunningStats cold;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            serve::LegStore store({.byteBudget = 64ull << 20, .directory = ""});
            config.resultSource = &store;
            const auto start = Clock::now();
            benchmark::DoNotOptimize(runSweep(config));
            cold.add(legs / secondsSince(start));
        }
        metrics.push_back(metricOf("serve.cold_legs_per_sec", cold));

        // Warm: one shared store pre-filled by a priming run; every rep is
        // pure digest + lookup + reduction.
        serve::LegStore store({.byteBudget = 64ull << 20, .directory = ""});
        config.resultSource = &store;
        benchmark::DoNotOptimize(runSweep(config));
        RunningStats warm;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            benchmark::DoNotOptimize(runSweep(config));
            warm.add(legs / secondsSince(start));
        }
        metrics.push_back(metricOf("serve.warm_legs_per_sec", warm));
    }

    // Raw store hit latency: one lookup of a resident entry (hash the key
    // map slot, splice to the LRU front, copy the 484-byte slot, bump one
    // relaxed counter). Guards the per-leg overhead a warm sweep pays.
    {
        serve::LegStore store({.byteBudget = 1ull << 20, .directory = ""});
        LegResult value;
        value.normRuntime = 1.0;
        Digest256 key{};
        key[0] = 1;
        store.store(key, value);
        constexpr int kLookupsPerRep = 100000;
        RunningStats nanos;
        LegResult out;
        for (int rep = 0; rep < kPerfReps; ++rep) {
            const auto start = Clock::now();
            for (int i = 0; i < kLookupsPerRep; ++i) {
                benchmark::DoNotOptimize(store.lookup(key, out));
            }
            nanos.add(secondsSince(start) * 1e9 / kLookupsPerRep);
        }
        voltcache::bench::BenchMetric metric;
        metric.name = "serve.hit_lookup_ns";
        metric.value = nanos.mean();
        metric.ciHalfWidth = confidenceInterval(nanos).halfWidth;
        metric.unit = "ns";
        metric.samples = nanos.count();
        metrics.push_back(metric);
    }

    // Per-leg trace stamping cost: the exact work a traced sweep leg adds —
    // derive the deterministic child span id from the root context and check
    // the store's relaxed "is anyone collecting" guard. Guards the claim
    // that tracing is cheap enough to leave on: this must stay sub-
    // microsecond (it is two short SHA-256 compressions plus one atomic
    // load), orders of magnitude below what a leg simulation costs.
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
        voltcache::bench::BenchMetric metric;
        metric.name = "trace.ctx_overhead_ns";
        metric.value = nanos.mean();
        metric.ciHalfWidth = confidenceInterval(nanos).halfWidth;
        metric.unit = "ns";
        metric.samples = nanos.count();
        metrics.push_back(metric);
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
    ExportingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    // Micro benches have no sweep config; export with the defaults so the
    // JSON schema matches the figure benches.
    voltcache::bench::writeBenchJson("micro", voltcache::bench::defaultSweepConfig(),
                                     reporter.metrics());
    voltcache::bench::writeBenchJson("perf", voltcache::bench::defaultSweepConfig(),
                                     perfProbe());
    return 0;
}
