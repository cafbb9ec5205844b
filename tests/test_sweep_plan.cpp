// runSweep's plan → execute → reduce split, tested a step at a time:
//   * detail::planSweep resolves the grid defaults, the 8T one-trial rule,
//     the canonical leg order, one chip seed per (point, trial) and the
//     worker count;
//   * detail::reduceSweep folds hand-built slots into cells, per-benchmark
//     cells and forensics;
//   * the executor surfaces the failure of the lowest canonical index at
//     every thread count, and refuses trace observers;
//   * the executor's shared pool: concurrent jobs, a job wider than the
//     pool, and a fully cached job that never reaches a context or a map.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "power/dvfs.h"
#include "serve/store.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

SweepConfig gridConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::Robust8T, SchemeKind::SimpleWordDisable,
                      SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 3;
    config.scale = WorkloadScale::Tiny;
    return config;
}

TEST(SweepPlan, EmptyListsResolveToThePaperGrid) {
    const detail::SweepPlan plan = detail::planSweep(SweepConfig{});
    std::vector<std::string> allBenchmarks;
    for (const BenchmarkInfo& info : benchmarkList()) allBenchmarks.emplace_back(info.name);
    const auto low = DvfsTable::lowVoltagePoints();

    EXPECT_EQ(plan.grid.benchmarks, allBenchmarks);
    EXPECT_EQ(plan.grid.benchmarks.size(), 10U);
    EXPECT_EQ(plan.grid.schemes, paperSchemes());
    ASSERT_EQ(plan.grid.points.size(), low.size());
    for (std::size_t p = 0; p < low.size(); ++p) {
        EXPECT_EQ(plan.grid.points[p].voltage.millivolts(), low[p].voltage.millivolts());
    }
    EXPECT_EQ(plan.grid.points.front().voltage.millivolts(), 560.0);
    EXPECT_EQ(plan.grid.points.back().voltage.millivolts(), 400.0);

    // The public view is the plan's grid; explicit lists pass through.
    EXPECT_EQ(sweepGrid(SweepConfig{}).benchmarks, plan.grid.benchmarks);
    const SweepConfig config = gridConfig();
    const SweepGrid grid = sweepGrid(config);
    EXPECT_EQ(grid.benchmarks, config.benchmarks);
    EXPECT_EQ(grid.schemes, config.schemes);
    EXPECT_EQ(grid.points.size(), config.points.size());
}

TEST(SweepPlan, Robust8TRunsOneTrial) {
    SweepConfig config = gridConfig();
    const detail::SweepPlan plan = detail::planSweep(config);
    // Per (benchmark, point): one 8T leg plus `trials` legs per other scheme.
    EXPECT_EQ(plan.legs.size(), 2U * 2U * (1U + 2U * config.trials));
    for (const detail::SweepLeg& leg : plan.legs) {
        if (plan.grid.schemes[leg.scheme] == SchemeKind::Robust8T) {
            EXPECT_EQ(leg.trial, 0U);
        }
    }

    config.trials = 0; // no chips: not even the deterministic 8T leg runs
    EXPECT_TRUE(detail::planSweep(config).legs.empty());
}

TEST(SweepPlan, LegsAreInCanonicalOrder) {
    const detail::SweepPlan plan = detail::planSweep(gridConfig());
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t>> expected;
    for (std::uint32_t b = 0; b < 2; ++b) {
        for (std::uint32_t p = 0; p < 2; ++p) {
            for (std::uint32_t s = 0; s < 3; ++s) {
                for (std::uint32_t t = 0; t < (s == 0 ? 1U : 3U); ++t) {
                    expected.emplace_back(b, p, s, t);
                }
            }
        }
    }
    ASSERT_EQ(plan.legs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const detail::SweepLeg& leg = plan.legs[i];
        EXPECT_EQ(std::make_tuple(leg.benchmark, leg.point, leg.scheme, leg.trial), expected[i])
            << "leg " << i;
    }
}

TEST(SweepPlan, OneChipSeedPerPointAndTrial) {
    const SweepConfig config = gridConfig();
    const detail::SweepPlan plan = detail::planSweep(config);
    ASSERT_EQ(plan.chipSeeds.size(), config.points.size());
    std::set<std::uint64_t> distinct;
    for (const std::vector<std::uint64_t>& perTrial : plan.chipSeeds) {
        ASSERT_EQ(perTrial.size(), config.trials);
        distinct.insert(perTrial.begin(), perTrial.end());
    }
    EXPECT_EQ(distinct.size(), config.points.size() * config.trials);

    // Paired samples: the chips depend on the seed, voltage and trial only.
    SweepConfig other = config;
    other.benchmarks = {"qsort"};
    other.schemes = {SchemeKind::FbaPlus};
    EXPECT_EQ(detail::planSweep(other).chipSeeds, plan.chipSeeds);
    other.baseSeed = config.baseSeed + 1;
    EXPECT_NE(detail::planSweep(other).chipSeeds, plan.chipSeeds);
}

TEST(SweepPlan, WorkerCountRule) {
    SweepConfig config = gridConfig();
    config.threads = 0;
    const unsigned workers = detail::planSweep(config).workers;
    EXPECT_GE(workers, 1U);
    EXPECT_EQ(workers, detail::sweepWorkers(0));
    config.threads = 3;
    EXPECT_EQ(detail::planSweep(config).workers, 3U);
    EXPECT_EQ(detail::sweepWorkers(3), 3U);
    EXPECT_EQ(detail::sweepWorkers(65), 64U); // obs::kMaxThreadSlots
}

LegResult okSlot(double value) {
    LegResult slot;
    slot.normRuntime = value;
    slot.l2PerKilo = 10.0 * value;
    slot.normEpi = 0.5 * value;
    slot.busyFrac = 0.25;
    return slot;
}

TEST(SweepReduce, HandBuiltSlotsFoldInCanonicalOrder) {
    SweepConfig config = gridConfig();
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 2;
    const detail::SweepPlan plan = detail::planSweep(config);
    // (benchmark, scheme, trial): crc32 wdis 0/1, crc32 ffw 0/1, basicmath ...
    ASSERT_EQ(plan.legs.size(), 8U);

    std::vector<LegResult> slots;
    for (std::size_t i = 0; i < plan.legs.size(); ++i) slots.push_back(okSlot(1.0 + i));
    // crc32 FFW+BBR trial 0 carries FFW/BBR forensics; trial 1 yield-lost.
    slots[2].forensics.hasFfw = true;
    slots[2].forensics.ffwWindowSize[8] = 5;
    slots[2].forensics.hasBbr = true;
    slots[2].forensics.bbrBlocksPlaced = 7;
    slots[3] = LegResult{};
    slots[3].linkFailed = true;
    slots[3].forensics.failCause = LinkFailCause::NoChunk;

    const SweepResult result = detail::reduceSweep(plan, slots);

    ASSERT_EQ(result.cells.size(), 2U);
    const SweepCell& wdis = result.cell(SchemeKind::SimpleWordDisable, 400_mV);
    EXPECT_EQ(wdis.runs, 4U);
    EXPECT_EQ(wdis.linkFailures, 0U);
    EXPECT_DOUBLE_EQ(wdis.normRuntime.mean(), (1.0 + 2.0 + 5.0 + 6.0) / 4.0);
    EXPECT_DOUBLE_EQ(wdis.l2PerKilo.mean(), 10.0 * (1.0 + 2.0 + 5.0 + 6.0) / 4.0);
    const SweepCell& ffw = result.cell(SchemeKind::FfwBbr, 400_mV);
    EXPECT_EQ(ffw.runs, 3U);
    EXPECT_EQ(ffw.linkFailures, 1U);
    EXPECT_DOUBLE_EQ(ffw.normEpi.mean(), 0.5 * (3.0 + 7.0 + 8.0) / 3.0);

    ASSERT_EQ(result.perBenchmark.size(), 4U);
    const SweepCell& crcFfw = result.perBenchmark.at({"crc32", SchemeKind::FfwBbr, 400});
    EXPECT_EQ(crcFfw.runs, 1U);
    EXPECT_EQ(crcFfw.linkFailures, 1U);
    EXPECT_DOUBLE_EQ(crcFfw.normRuntime.mean(), 3.0);
    const SweepCell& mathWdis =
        result.perBenchmark.at({"basicmath", SchemeKind::SimpleWordDisable, 400});
    EXPECT_EQ(mathWdis.runs, 2U);
    EXPECT_DOUBLE_EQ(mathWdis.normRuntime.mean(), 5.5);

    // Only legs that carry forensics reach the forensics map.
    ASSERT_EQ(result.forensics.size(), 1U);
    const CellForensics& cell = result.forensics.at({SchemeKind::FfwBbr, 400});
    EXPECT_EQ(cell.legs, 2U);
    EXPECT_EQ(cell.ffwLegs, 1U);
    EXPECT_EQ(cell.bbrLegs, 1U);
    EXPECT_EQ(cell.ffwWindowSize[8], 5U);
    EXPECT_EQ(cell.bbrBlocksPlaced, 7U);
    EXPECT_EQ(cell.yieldLoss[static_cast<std::size_t>(LinkFailCause::NoChunk)], 1U);
}

std::string sweepError(const SweepConfig& config) {
    try {
        (void)runSweep(config);
    } catch (const std::exception& e) {
        return e.what();
    }
    return "(no error)";
}

TEST(SweepFailure, ModuleErrorOfTheFirstBenchmarkSurfaces) {
    SweepConfig config = gridConfig();
    config.benchmarks = {"crc32", "nope1", "nope2"};
    for (const unsigned threads : {1U, 2U, 8U}) {
        config.threads = threads;
        const std::string error = sweepError(config);
        EXPECT_NE(error.find("nope1"), std::string::npos)
            << "threads " << threads << ": " << error;
    }
}

/// Misses every probe and fails every store, naming the leg it was handed.
class FailingStore : public LegResultSource {
public:
    explicit FailingStore(std::map<Digest256, std::size_t> legOf) : legOf_(std::move(legOf)) {}
    bool lookup(const Digest256& /*key*/, LegResult& /*out*/) override { return false; }
    void store(const Digest256& key, const LegResult& /*value*/) override {
        throw std::runtime_error("store failed at leg " + std::to_string(legOf_.at(key)));
    }

private:
    std::map<Digest256, std::size_t> legOf_;
};

TEST(SweepFailure, LegErrorOfTheFirstCanonicalLegSurfaces) {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 4;
    config.scale = WorkloadScale::Tiny;

    // Key every leg the way the executor does, from the plan.
    const detail::SweepPlan plan = detail::planSweep(config);
    const Digest256 module = moduleDigest(buildBenchmark("crc32", config.scale));
    std::map<Digest256, std::size_t> legOf;
    for (std::size_t i = 0; i < plan.legs.size(); ++i) {
        const detail::SweepLeg& leg = plan.legs[i];
        legOf[legDigest(module, plan.grid.schemes[leg.scheme], plan.grid.points[leg.point],
                        plan.chipSeeds[leg.point][leg.trial], plan.legTemplate)] = i;
    }
    ASSERT_EQ(legOf.size(), 8U);

    for (const unsigned threads : {1U, 2U, 8U}) {
        FailingStore store(legOf);
        config.threads = threads;
        config.resultSource = &store;
        EXPECT_EQ(sweepError(config), "store failed at leg 0") << "threads " << threads;
    }
}

/// Counts probes and inserts; never hits.
class CountingSource : public LegResultSource {
public:
    bool lookup(const Digest256& /*key*/, LegResult& /*out*/) override {
        ++calls;
        return false;
    }
    void store(const Digest256& /*key*/, const LegResult& /*value*/) override { ++calls; }
    std::atomic<int> calls{0};
};

class CountingObserver : public TraceObserver {
public:
    void onInstruction(std::uint32_t /*pc*/, const Instruction& /*inst*/) override { ++count; }
    std::uint64_t count = 0;
};

// A sweep replays legs and serves them from a store, so an observer would
// miss them: it is refused before any leg runs or the store is probed.
TEST(SweepFailure, TraceObserversAreRefused) {
    SweepConfig config = gridConfig();
    CountingObserver observer;
    CountingSource source;
    config.systemTemplate.observers.push_back(&observer);
    config.resultSource = &source;
    EXPECT_THROW((void)runSweep(config), ContractViolation);
    EXPECT_EQ(observer.count, 0U);
    EXPECT_EQ(source.calls.load(), 0);
}

std::string sweepJson(const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "sweep-plan-test";
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(runSweep(config), meta);
}

SweepConfig withThreads(SweepConfig config, unsigned threads) {
    config.threads = threads;
    return config;
}

TEST(SweepExecutor, ConcurrentJobsShareThePoolByteIdentically) {
    SweepConfig first = gridConfig();
    SweepConfig second = gridConfig();
    second.benchmarks = {"qsort"};
    second.baseSeed = 7;
    const std::string firstSerial = sweepJson(withThreads(first, 1));
    const std::string secondSerial = sweepJson(withThreads(second, 1));

    for (const unsigned threads : {2U, 4U}) {
        std::string firstJson;
        std::string secondJson;
        std::thread other([&] { secondJson = sweepJson(withThreads(second, threads)); });
        firstJson = sweepJson(withThreads(first, threads));
        other.join();
        EXPECT_EQ(firstJson, firstSerial) << "threads " << threads;
        EXPECT_EQ(secondJson, secondSerial) << "threads " << threads;
    }
}

TEST(SweepExecutor, PoolGrowsForAWiderJob) {
    const SweepConfig config = gridConfig();
    const std::string serial = sweepJson(withThreads(config, 1));
    EXPECT_EQ(sweepJson(withThreads(config, 2)), serial);
    EXPECT_GE(detail::executorThreads(), 2U);
    EXPECT_EQ(sweepJson(withThreads(config, 16)), serial);
    EXPECT_GE(detail::executorThreads(), 16U);
}

double gaugeValue(const char* name) {
    for (const obs::MetricSnapshot& metric : obs::MetricsRegistry::global().snapshot()) {
        if (metric.name == name && metric.labels.empty()) return metric.value;
    }
    return -1.0;
}

TEST(SweepExecutor, FullyCachedJobRecordsNoTraceAndDrawsNoMap) {
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig config = gridConfig();
    config.threads = 4;
    config.resultSource = &store;
    const std::string cold = sweepJson(config);
    EXPECT_GT(gaugeValue("trace.resident_bytes"), 0.0);

    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    const std::string warm = sweepJson(config);
    const std::vector<obs::SpanStat> spans = obs::Profiler::snapshot();
    obs::Profiler::setEnabled(false);

    EXPECT_EQ(warm, cold);
    EXPECT_EQ(gaugeValue("trace.resident_bytes"), 0.0);
    for (const obs::SpanStat& span : spans) {
        EXPECT_TRUE(span.name != "record" && span.name != "mapgen" && span.name != "context")
            << span.name << " closed " << span.count << " times";
    }
    EXPECT_TRUE(std::ranges::any_of(
        spans, [](const obs::SpanStat& span) { return span.name == "store_probe"; }));
}

TEST(SweepFailure, ModuleErrorBeatsAFullyCachedBenchmark) {
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig config = gridConfig();
    config.benchmarks = {"crc32"};
    config.resultSource = &store;
    (void)runSweep(config); // every crc32 leg of the grid is now stored

    config.benchmarks = {"crc32", "nope1"};
    for (const unsigned threads : {1U, 2U, 8U}) {
        config.threads = threads;
        const std::string error = sweepError(config);
        EXPECT_NE(error.find("nope1"), std::string::npos)
            << "threads " << threads << ": " << error;
    }
}

} // namespace
} // namespace voltcache
