// Tests for the parametric pointer-chase workload used by the footprint
// study (bench_footprint).
#include <gtest/gtest.h>

#include "common/contracts.h"
#include "cpu/simulator.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "workload/locality.h"
#include "workload/synthetic.h"

namespace voltcache {
namespace {

RunStats runChase(const PointerChaseParams& params, std::int32_t* checksum = nullptr,
                  LocalityProfiler* profiler = nullptr) {
    const Module module = buildPointerChase(params);
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    if (profiler != nullptr) sim.setObserver(profiler);
    const RunStats stats = sim.run();
    if (checksum != nullptr) *checksum = sim.reg(1);
    return stats;
}

TEST(PointerChase, RunsToCompletionDeterministically) {
    PointerChaseParams params;
    params.poolRecords = 512;
    params.cycleRecords = 128;
    params.steps = 2000;
    std::int32_t a = 0;
    std::int32_t b = 0;
    EXPECT_TRUE(runChase(params, &a).halted);
    EXPECT_TRUE(runChase(params, &b).halted);
    EXPECT_EQ(a, b);
}

TEST(PointerChase, StepsScaleInstructions) {
    PointerChaseParams small;
    small.poolRecords = 512;
    small.cycleRecords = 128;
    small.steps = 1000;
    PointerChaseParams big = small;
    big.steps = 4000;
    EXPECT_GT(runChase(big).instructions, runChase(small).instructions * 2);
}

TEST(PointerChase, WordsPerVisitControlsSpatialLocality) {
    PointerChaseParams narrow;
    narrow.poolRecords = 1024;
    narrow.cycleRecords = 256;
    narrow.steps = 4000;
    narrow.wordsPerVisit = 2;
    PointerChaseParams wide = narrow;
    wide.wordsPerVisit = 6;
    LocalityProfiler profilerNarrow;
    LocalityProfiler profilerWide;
    (void)runChase(narrow, nullptr, &profilerNarrow);
    (void)runChase(wide, nullptr, &profilerWide);
    profilerNarrow.finalize();
    profilerWide.finalize();
    EXPECT_LT(profilerNarrow.meanSpatialLocality() + 0.15,
              profilerWide.meanSpatialLocality());
}

TEST(PointerChase, FootprintControlsMissRate) {
    // A cycle within the 32KB L1 hits after warmup; a cycle far beyond it
    // thrashes and keeps missing.
    PointerChaseParams fits;
    fits.poolRecords = 4096;
    fits.cycleRecords = 256; // 8KB live
    fits.steps = 20000;
    PointerChaseParams thrashes = fits;
    thrashes.cycleRecords = 4096; // 128KB live
    const RunStats a = runChase(fits);
    const RunStats b = runChase(thrashes);
    EXPECT_LT(a.l2AccessesPerKilo() * 3, b.l2AccessesPerKilo());
}

TEST(PointerChase, ParameterValidation) {
    PointerChaseParams bad;
    bad.cycleRecords = bad.poolRecords + 1;
    EXPECT_THROW((void)buildPointerChase(bad), ContractViolation);
    PointerChaseParams badWords;
    badWords.wordsPerVisit = 9;
    EXPECT_THROW((void)buildPointerChase(badWords), ContractViolation);
}

} // namespace
} // namespace voltcache
