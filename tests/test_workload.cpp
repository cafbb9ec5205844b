// Tests for the benchmark suite: every program builds, validates, runs to
// completion, computes a stable checksum, and exhibits the data-locality
// profile the paper's Fig. 3 assigns to the program it models.
#include <gtest/gtest.h>

#include <string>

#include "cpu/simulator.h"
#include "isa/builder.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "workload/locality.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

struct RunOutcome {
    RunStats stats;
    std::int32_t checksum = 0;
    double spatial = 0.0;
    double reuse = 0.0;
    std::vector<LocalityProfiler::IntervalStats> intervals;

    /// Access-weighted reuse over the trailing 3/4 of intervals — the
    /// steady state, excluding input-generation warmup (the paper profiles
    /// representative traces, which exclude initialization).
    [[nodiscard]] double steadyReuse() const {
        double weighted = 0.0;
        double total = 0.0;
        for (std::size_t i = intervals.size() / 4; i < intervals.size(); ++i) {
            weighted += intervals[i].wordReuseRate * static_cast<double>(intervals[i].accesses);
            total += static_cast<double>(intervals[i].accesses);
        }
        return total > 0.0 ? weighted / total : 0.0;
    }
};

RunOutcome runBenchmark(const std::string& name, WorkloadScale scale,
                        bool profile = false) {
    const Module module = buildBenchmark(name, scale);
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    LocalityProfiler profiler;
    if (profile) sim.setObserver(&profiler);
    RunOutcome outcome;
    outcome.stats = sim.run();
    outcome.checksum = sim.reg(1);
    if (profile) {
        profiler.finalize();
        outcome.spatial = profiler.meanSpatialLocality();
        outcome.reuse = profiler.meanWordReuseRate();
        outcome.intervals = profiler.intervals();
    }
    return outcome;
}

class EveryBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBenchmark, BuildsAndValidates) {
    const Module module = buildBenchmark(GetParam(), WorkloadScale::Tiny);
    EXPECT_NO_THROW(module.validate());
    EXPECT_GT(module.totalCodeWords(), 20u);
    EXPECT_GE(module.functions.size(), 2u); // main + stdlib at least
}

TEST_P(EveryBenchmark, RunsToCompletion) {
    const auto outcome = runBenchmark(GetParam(), WorkloadScale::Tiny);
    EXPECT_TRUE(outcome.stats.halted);
    EXPECT_GT(outcome.stats.instructions, 10000u) << "workload too small to be meaningful";
    EXPECT_LT(outcome.stats.instructions, 5000000u) << "Tiny scale too large for tests";
}

TEST_P(EveryBenchmark, ChecksumDeterministic) {
    const auto first = runBenchmark(GetParam(), WorkloadScale::Tiny);
    const auto second = runBenchmark(GetParam(), WorkloadScale::Tiny);
    EXPECT_EQ(first.checksum, second.checksum);
}

TEST_P(EveryBenchmark, ScalesGrowTheWork) {
    const auto tiny = runBenchmark(GetParam(), WorkloadScale::Tiny);
    const auto small = runBenchmark(GetParam(), WorkloadScale::Small);
    EXPECT_GT(small.stats.instructions, tiny.stats.instructions * 2);
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryBenchmark,
                         ::testing::Values("basicmath", "qsort", "dijkstra", "patricia",
                                           "crc32", "adpcm", "mcf_r", "bzip2_r", "hmmer_r",
                                           "libquantum_r"),
                         [](const auto& info) { return info.param; });

TEST(Workload, ListHasTenEntries) {
    EXPECT_EQ(benchmarkList().size(), 10u);
    EXPECT_THROW((void)buildBenchmark("nope", WorkloadScale::Tiny), std::out_of_range);
}

TEST(Workload, QsortActuallySorts) {
    // The qsort checksum folds adjacent inversions into bits 16+; a sorted
    // array leaves them zero, i.e. checksum == plain element sum. The sum
    // is reproducible on the host with the same LCG.
    const auto outcome = runBenchmark("qsort", WorkloadScale::Tiny);
    std::uint32_t seed = 0x1234567;
    std::uint32_t sum = 0; // unsigned: mirrors the machine's wrapping 32-bit adds
    for (int i = 0; i < 256; ++i) {
        seed = seed * 1103515245u + 12345u;
        sum += seed;
    }
    EXPECT_EQ(static_cast<std::uint32_t>(outcome.checksum), sum)
        << "inversions present or sum corrupted";
}

TEST(Workload, Crc32MatchesHostImplementation) {
    const auto outcome = runBenchmark("crc32", WorkloadScale::Tiny);
    // Reproduce: 512 LCG words, standard reflected CRC-32.
    std::uint32_t table[256];
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    std::uint32_t seed = 0xc4c32;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (int i = 0; i < 512; ++i) {
        seed = seed * 1103515245u + 12345u;
        std::uint32_t word = seed;
        for (int b = 0; b < 4; ++b) {
            crc = (crc >> 8) ^ table[(crc ^ word) & 0xFF];
            word >>= 8;
        }
    }
    crc ^= 0xFFFFFFFFu;
    EXPECT_EQ(static_cast<std::uint32_t>(outcome.checksum), crc);
}

// ---- Fig. 3 locality profiles ----

TEST(Locality, LibquantumIsTheStreamingOutlier) {
    // Fig. 3: 462.libquantum is the only program with high spatial locality
    // AND low word reuse.
    const auto lib = runBenchmark("libquantum_r", WorkloadScale::Tiny, true);
    EXPECT_GT(lib.spatial, 0.75);
    EXPECT_LT(lib.reuse, 0.4);
}

TEST(Locality, PointerChasersHaveLowSpatialHighReuse) {
    const auto mcf = runBenchmark("mcf_r", WorkloadScale::Tiny, true);
    EXPECT_LT(mcf.spatial, 0.65);
    EXPECT_GT(mcf.reuse, 0.6);
    const auto patricia = runBenchmark("patricia", WorkloadScale::Tiny, true);
    EXPECT_LT(patricia.spatial, 0.7);
    EXPECT_GT(patricia.reuse, 0.6);
}

TEST(Locality, TableKernelsHaveHighReuse) {
    for (const char* name : {"basicmath", "crc32", "adpcm", "bzip2_r", "hmmer_r"}) {
        const auto outcome = runBenchmark(name, WorkloadScale::Small, true);
        EXPECT_GT(outcome.steadyReuse(), 0.55) << name;
    }
}

TEST(Locality, ProfilerIntervalMechanics) {
    LocalityProfiler profiler(100); // tiny interval for the test
    const Instruction nop{};
    // Interval 1: two accesses to the same word of one block.
    profiler.onDataAccess(0x1000, false);
    profiler.onDataAccess(0x1000, true);
    for (int i = 0; i < 100; ++i) profiler.onInstruction(0, nop);
    ASSERT_EQ(profiler.intervals().size(), 1u);
    EXPECT_NEAR(profiler.intervals()[0].spatialLocality, 1.0 / 8.0, 1e-12);
    EXPECT_NEAR(profiler.intervals()[0].wordReuseRate, 0.5, 1e-12);
    // Interval 2: a fully streamed block.
    for (int w = 0; w < 8; ++w) profiler.onDataAccess(0x2000 + w * 4, false);
    profiler.finalize();
    ASSERT_EQ(profiler.intervals().size(), 2u);
    EXPECT_NEAR(profiler.intervals()[1].spatialLocality, 1.0, 1e-12);
    EXPECT_NEAR(profiler.intervals()[1].wordReuseRate, 0.0, 1e-12);
}

TEST(Locality, EmptyIntervalsAreSkipped) {
    LocalityProfiler profiler(10);
    const Instruction nop{};
    for (int i = 0; i < 100; ++i) profiler.onInstruction(0, nop);
    profiler.finalize();
    EXPECT_TRUE(profiler.intervals().empty());
}

} // namespace
} // namespace voltcache
