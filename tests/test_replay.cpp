// Record-once / replay-many engine (core/replay.h, cpu/arch_trace.h):
//   * trace encoding round-trips (zigzag, varints, chunk boundaries, the
//     trailing partial control-flow byte, byte-cap overflow),
//   * the headline equivalence property — for every scheme x voltage x seed,
//     one-lane and multi-lane replayBatch() equal simulateSystem()
//     field-for-field, also under an instruction cap, and
//   * sweep-level integration: the exported JSON is byte-identical with
//     replay on vs off (any thread count), the byte cap falls back to
//     execution-driven legs without changing results, and the progress
//     ticks account every leg as replayed or executed.
#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/passes.h"
#include "core/replay.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/system.h"
#include "cpu/arch_trace.h"
#include "power/dvfs.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

// ---------------------------------------------------------------- encoding

TEST(ReplayTrace, ZigzagRoundTrip) {
    const std::int32_t values[] = {0,  1,          -1,         63,         -64,
                                   64, 2147483647, -2147483647, -2147483648};
    for (const std::int32_t v : values) {
        EXPECT_EQ(detail::unzigzag(detail::zigzag(v)), v) << v;
    }
    // Small magnitudes map to small codes (the property varints rely on).
    EXPECT_EQ(detail::zigzag(0), 0U);
    EXPECT_EQ(detail::zigzag(-1), 1U);
    EXPECT_EQ(detail::zigzag(1), 2U);
}

TEST(ReplayTrace, StreamsRoundTripAcrossChunkBoundaries) {
    ArchTrace trace;
    // Enough multi-byte varints to cross several 64KB chunks, plus a
    // control-flow record count that is NOT a multiple of four so the
    // trailing partial byte path is exercised.
    constexpr std::uint32_t kRecords = 150'003;
    std::vector<std::uint32_t> dataAddrs;
    std::vector<std::uint32_t> jalrTargets;
    std::uint32_t addr = 0x00100000;
    std::uint32_t target = 0x400;
    for (std::uint32_t i = 0; i < kRecords; ++i) {
        trace.putCf((i % 3) == 0, (i % 5) != 0);
        addr += (i % 7) * 4 + ((i % 11) == 0 ? 1u << 20 : 0); // large deltas too
        dataAddrs.push_back(addr);
        trace.putDataAddr(addr);
        if (i % 4 == 0) {
            target = (target + i * 4) & ~3U;
            jalrTargets.push_back(target);
            trace.putJalrTarget(target);
        }
    }
    ASSERT_GT(trace.payloadBytes(), 3 * ChunkedBytes::kChunkBytes);
    trace.finalize(true, 42, 0, 0x400, 1024);

    ArchTrace::Cursor cursor(trace);
    std::size_t jalrIdx = 0;
    for (std::uint32_t i = 0; i < kRecords; ++i) {
        const CfRecord cf = cursor.nextCf();
        EXPECT_EQ(cf.taken, (i % 3) == 0) << i;
        EXPECT_EQ(cf.correct, (i % 5) != 0) << i;
        EXPECT_EQ(cursor.nextDataAddr(), dataAddrs[i]) << i;
        if (i % 4 == 0) {
            EXPECT_EQ(cursor.nextJalrTarget(), jalrTargets[jalrIdx++]);
        }
    }
    EXPECT_TRUE(cursor.fullyConsumed());
    EXPECT_FALSE(trace.overflowed());
    EXPECT_TRUE(trace.finalized());
    EXPECT_EQ(trace.checksum(), 42);
    EXPECT_TRUE(trace.halted());
}

TEST(ReplayTrace, ByteCapMarksOverflow) {
    ArchTrace trace(/*byteCap=*/8);
    for (std::uint32_t i = 0; i < 64; ++i) trace.putDataAddr(i * 4096);
    EXPECT_TRUE(trace.overflowed());

    ArchTrace uncapped(/*byteCap=*/0);
    for (std::uint32_t i = 0; i < 64; ++i) uncapped.putDataAddr(i * 4096);
    EXPECT_FALSE(uncapped.overflowed());
}

// ------------------------------------------------------------- equivalence

#define EXPECT_FIELD_EQ(field) EXPECT_EQ(exec.field, replayed.field) << where

void expectSameResult(const SystemResult& exec, const SystemResult& replayed,
                      const std::string& where) {
    EXPECT_FIELD_EQ(linkFailed);
    EXPECT_FIELD_EQ(checksum);

    EXPECT_FIELD_EQ(run.instructions);
    EXPECT_FIELD_EQ(run.cycles);
    EXPECT_FIELD_EQ(run.halted);
    EXPECT_FIELD_EQ(run.loads);
    EXPECT_FIELD_EQ(run.stores);
    EXPECT_FIELD_EQ(run.condBranches);
    EXPECT_FIELD_EQ(run.takenBranches);
    EXPECT_FIELD_EQ(run.mispredicts);
    EXPECT_FIELD_EQ(run.ifetchStallCycles);
    EXPECT_FIELD_EQ(run.dmemStallCycles);
    EXPECT_FIELD_EQ(run.branchStallCycles);
    EXPECT_FIELD_EQ(run.execStallCycles);
    EXPECT_FIELD_EQ(run.activity.instructions);
    EXPECT_FIELD_EQ(run.activity.cycles);
    EXPECT_FIELD_EQ(run.activity.l1iAccesses);
    EXPECT_FIELD_EQ(run.activity.l1dAccesses);
    EXPECT_FIELD_EQ(run.activity.l2Accesses);
    EXPECT_FIELD_EQ(run.activity.l2WriteThroughs);
    EXPECT_FIELD_EQ(run.activity.dramAccesses);
    EXPECT_FIELD_EQ(run.activity.auxAccesses);

    EXPECT_FIELD_EQ(linkStats.blocksPlaced);
    EXPECT_FIELD_EQ(linkStats.gapWords);
    EXPECT_FIELD_EQ(linkStats.imageWords);
    EXPECT_FIELD_EQ(linkStats.codeWords);
    EXPECT_FIELD_EQ(linkStats.largestBlockWords);
    EXPECT_FIELD_EQ(linkStats.scanRestarts);
    EXPECT_FIELD_EQ(linkStats.wrapArounds);

    EXPECT_FIELD_EQ(icacheStats.accesses);
    EXPECT_FIELD_EQ(icacheStats.hits);
    EXPECT_FIELD_EQ(icacheStats.lineMisses);
    EXPECT_FIELD_EQ(icacheStats.wordMisses);
    EXPECT_FIELD_EQ(icacheStats.l2Reads);
    EXPECT_FIELD_EQ(dcacheStats.accesses);
    EXPECT_FIELD_EQ(dcacheStats.hits);
    EXPECT_FIELD_EQ(dcacheStats.lineMisses);
    EXPECT_FIELD_EQ(dcacheStats.wordMisses);
    EXPECT_FIELD_EQ(dcacheStats.l2Reads);

    // Doubles must match bit-for-bit: both paths run the same accounting
    // code over identical counts, so exact == is the contract, not a tol.
    EXPECT_FIELD_EQ(epi);
    EXPECT_FIELD_EQ(runtimeSeconds);
    EXPECT_FIELD_EQ(energyBreakdown.coreDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.l1Dynamic);
    EXPECT_FIELD_EQ(energyBreakdown.l2Dynamic);
    EXPECT_FIELD_EQ(energyBreakdown.dramDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.auxDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.coreL1Static);
    EXPECT_FIELD_EQ(energyBreakdown.l2Static);
}

#undef EXPECT_FIELD_EQ

struct Fixture {
    Module module;
    Module bbrModule;
    TraceCache traces;

    /// Per-leg replay: a one-lane TrialBatch.
    [[nodiscard]] SystemResult replay(const SystemConfig& config) const {
        BatchLane lane;
        lane.config = config;
        replayBatch(&bbrModule, traces, std::span<BatchLane>(&lane, 1));
        return lane.result;
    }

    /// One TrialBatch with a lane per config, results in config order.
    [[nodiscard]] std::vector<SystemResult> replayLanes(
        const std::vector<SystemConfig>& configs) const {
        std::vector<BatchLane> lanes(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) lanes[i].config = configs[i];
        replayBatch(&bbrModule, traces, lanes);
        std::vector<SystemResult> results;
        for (const BatchLane& lane : lanes) results.push_back(lane.result);
        return results;
    }
};

/// `maxInstructions` caps the recorded runs; replayed configs must carry
/// the same cap.
Fixture makeFixture(const std::string& benchmark, std::uint64_t maxInstructions = 0) {
    Fixture fx;
    fx.module = buildBenchmark(benchmark, WorkloadScale::Tiny);
    fx.bbrModule = fx.module;
    applyBbrTransforms(fx.bbrModule);

    SystemConfig record;
    record.scheme = SchemeKind::Conventional760;
    record.op = DvfsTable::vccminBaseline();
    record.maxInstructions = maxInstructions;
    SystemResult ignored;
    fx.traces.plain = recordReplaySource(fx.module, record, 0, ignored);
    fx.traces.bbr = recordReplaySource(fx.bbrModule, record, 0, ignored);
    return fx;
}

const std::vector<SchemeKind>& allSchemes() {
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::DefectFree,        SchemeKind::Conventional760,
        SchemeKind::Robust8T,          SchemeKind::SimpleWordDisable,
        SchemeKind::WilkersonPlus,     SchemeKind::FbaPlus,
        SchemeKind::IdcPlus,           SchemeKind::FfwBbr,
    };
    return kinds;
}

// The headline property: replay is bit-identical to execution for every
// scheme at a high / mid / floor operating point over many chips, both as
// one-lane batches and with all 20 chips sharing one batch (the op-major
// multi-lane path). (Table II has no 600mV row; 560mV is the nearest
// mid-grid point.)
TEST(ReplayEquivalence, AllSchemesVoltagesSeeds) {
    const Fixture fx = makeFixture("basicmath");
    for (const SchemeKind scheme : allSchemes()) {
        for (const int mv : {760, 560, 400}) {
            std::vector<SystemConfig> configs;
            std::vector<SystemResult> execs;
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                SystemConfig config;
                config.scheme = scheme;
                config.op = DvfsTable::at(Voltage::fromMillivolts(mv));
                config.faultMapSeed = seed;
                const SystemResult exec =
                    simulateSystem(fx.module, &fx.bbrModule, config);
                const SystemResult replayed = fx.replay(config);
                const std::string where = std::string(schemeName(scheme)) + " @" +
                                          std::to_string(mv) + "mV seed " +
                                          std::to_string(seed);
                expectSameResult(exec, replayed, where);
                configs.push_back(config);
                execs.push_back(exec);
            }
            const std::vector<SystemResult> batched = fx.replayLanes(configs);
            for (std::size_t i = 0; i < configs.size(); ++i) {
                expectSameResult(execs[i], batched[i],
                                 std::string(schemeName(scheme)) + " @" +
                                     std::to_string(mv) + "mV seed " +
                                     std::to_string(configs[i].faultMapSeed) +
                                     " (20-lane batch)");
            }
        }
    }
}

// An instruction cap that ends mid tape chunk (4099 = 16 x 256 + 3): the
// capped recording and every capped replay, one-lane and 7-lane, stop on
// the same instruction as capped execution.
TEST(ReplayEquivalence, InstructionCapEndsMidChunk) {
    constexpr std::uint64_t kCap = 4099;
    const Fixture fx = makeFixture("basicmath", kCap);
    for (const SchemeKind scheme : allSchemes()) {
        std::vector<SystemConfig> configs;
        std::vector<SystemResult> execs;
        for (std::uint64_t seed = 1; seed <= 7; ++seed) {
            SystemConfig config;
            config.scheme = scheme;
            config.op = DvfsTable::at(400_mV);
            config.faultMapSeed = seed;
            config.maxInstructions = kCap;
            execs.push_back(simulateSystem(fx.module, &fx.bbrModule, config));
            configs.push_back(config);
        }
        const std::vector<SystemResult> batched = fx.replayLanes(configs);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string where = std::string(schemeName(scheme)) + " capped seed " +
                                      std::to_string(configs[i].faultMapSeed);
            if (!execs[i].linkFailed) {
                EXPECT_EQ(execs[i].run.instructions, kCap) << where;
                EXPECT_FALSE(execs[i].run.halted) << where;
            }
            expectSameResult(execs[i], fx.replay(configs[i]), where + " (1 lane)");
            expectSameResult(execs[i], batched[i], where + " (7-lane batch)");
        }
    }

    // One batch whose lanes interleave every plain scheme, so several scheme
    // groups share each decoded chunk.
    std::vector<SchemeKind> plainOrder = {
        SchemeKind::IdcPlus,         SchemeKind::DefectFree,    SchemeKind::FbaPlus,
        SchemeKind::Conventional760, SchemeKind::WilkersonPlus, SchemeKind::Robust8T,
        SchemeKind::SimpleWordDisable};
    std::vector<SystemConfig> configs;
    std::vector<SystemResult> execs;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        for (const SchemeKind scheme : plainOrder) {
            SystemConfig config;
            config.scheme = scheme;
            config.op = DvfsTable::at(400_mV);
            config.faultMapSeed = seed;
            config.maxInstructions = kCap;
            execs.push_back(simulateSystem(fx.module, &fx.bbrModule, config));
            configs.push_back(config);
        }
        std::reverse(plainOrder.begin(), plainOrder.end());
    }
    const std::vector<SystemResult> mixed = fx.replayLanes(configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        expectSameResult(execs[i], mixed[i],
                         std::string(schemeName(configs[i].scheme)) + " capped seed " +
                             std::to_string(configs[i].faultMapSeed) + " (mixed batch)");
    }
}

// Spot-check a second benchmark so the property is not basicmath-shaped.
TEST(ReplayEquivalence, SecondBenchmarkSpotCheck) {
    const Fixture fx = makeFixture("crc32");
    for (const SchemeKind scheme :
         {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SystemConfig config;
            config.scheme = scheme;
            config.op = DvfsTable::at(400_mV);
            config.faultMapSeed = seed;
            const SystemResult exec = simulateSystem(fx.module, &fx.bbrModule, config);
            const SystemResult replayed = fx.replay(config);
            const std::string where = std::string(schemeName(scheme)) + " crc32 seed " +
                                      std::to_string(seed);
            expectSameResult(exec, replayed, where);
        }
    }
}

// ---------------------------------------------------------------- sweeps

SweepConfig sweepConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::Robust8T, SchemeKind::SimpleWordDisable,
                      SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 3;
    config.scale = WorkloadScale::Tiny;
    config.threads = 1;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "replay-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(ReplaySweep, JsonByteIdenticalReplayVsExecution) {
    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SweepConfig replay = sweepConfig();
        replay.useReplay = true;
        replay.threads = threads;
        const std::string replayJson = exportJson(runSweep(replay), replay);
        EXPECT_EQ(execJson, replayJson) << "replay sweep diverges at --threads "
                                        << threads;
    }
}

// One-lane batches are per-leg replay: anchored to execution-driven
// simulation directly, not to wider batches, so every batch size stays in
// one byte-identical equivalence class with the ground truth.
TEST(ReplaySweep, OneLaneBatchJsonByteIdenticalToExecution) {
    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SweepConfig replay = sweepConfig();
        replay.batchLanes = 1;
        replay.threads = threads;
        const std::string replayJson = exportJson(runSweep(replay), replay);
        EXPECT_EQ(execJson, replayJson)
            << "--batch 1 replay diverges from execution at --threads " << threads;
    }
}

TEST(ReplaySweep, ProgressAccountsEveryLeg) {
    SweepConfig config = sweepConfig();
    SweepProgress last;
    config.onProgress = [&last](const SweepProgress& p) { last = p; };

    (void)runSweep(config);
    EXPECT_EQ(last.benchmarksCompleted, last.benchmarksTotal);
    EXPECT_GT(last.legsTotal, 0U);
    EXPECT_EQ(last.legsCompleted, last.legsTotal);
    EXPECT_EQ(last.legsReplayed + last.legsExecuted, last.legsTotal);
    EXPECT_EQ(last.legsReplayed, last.legsTotal); // every scheme leg replayable

    config.useReplay = false;
    (void)runSweep(config);
    EXPECT_EQ(last.legsReplayed, 0U);
    EXPECT_EQ(last.legsExecuted, last.legsTotal);
}

// A byte cap too small for any real trace: recording overflows, the sweep
// logs once and runs execution-driven — and the JSON must not change.
TEST(ReplaySweep, ByteCapOverflowFallsBackToExecution) {
    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    SweepConfig capped = sweepConfig();
    capped.traceByteCap = 16; // bytes — overflows immediately
    SweepProgress last;
    capped.onProgress = [&last](const SweepProgress& p) { last = p; };
    const std::string cappedJson = exportJson(runSweep(capped), capped);

    EXPECT_EQ(execJson, cappedJson);
    EXPECT_EQ(last.legsReplayed, 0U);
    EXPECT_EQ(last.legsExecuted, last.legsTotal);
}

} // namespace
} // namespace voltcache
