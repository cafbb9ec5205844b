// Tests for the linker: conventional layout, relocation resolution, and the
// BBR first-fit placement of Algorithm 1.
#include <gtest/gtest.h>

#include "analysis/placement_prover.h"
#include "compiler/passes.h"
#include "cpu/simulator.h"
#include "faults/fault_map.h"
#include "isa/builder.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using namespace regs;
using voltcache::literals::operator""_mV;

Module tinyProgram() {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto done = f.newBlock("done");
    f.li(r1, 0);
    f.li(r2, 5);
    f.jmp(loop);
    f.at(loop);
    f.beq(r2, r0, done);
    f.add(r1, r1, r2);
    f.addi(r2, r2, -1);
    f.jmp(loop);
    f.at(done);
    f.halt();
    return mb.take();
}

std::int32_t executeImage(const Image& image, const Module& module) {
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(image, module.data, icache, dcache);
    const RunStats stats = sim.run();
    EXPECT_TRUE(stats.halted);
    return sim.reg(1);
}

TEST(Linker, ConventionalLayoutIsContiguous) {
    const Module module = tinyProgram();
    const LinkOutput out = link(module);
    EXPECT_EQ(out.stats.gapWords, 0u);
    EXPECT_EQ(out.stats.imageWords, out.stats.codeWords);
    // Blocks appear back to back in layout order.
    std::uint32_t expected = out.image.baseAddr();
    for (const auto& placement : out.image.placements()) {
        EXPECT_EQ(placement.byteAddr, expected);
        expected += placement.sizeWords() * 4;
    }
}

TEST(Linker, BranchDisplacementsResolve) {
    const Module module = tinyProgram();
    const LinkOutput out = link(module);
    EXPECT_EQ(executeImage(out.image, module), 15); // 5+4+3+2+1
}

TEST(Linker, EntryAddressPointsAtMain) {
    ModuleBuilder mb;
    auto helper = mb.function("helper");
    helper.ret();
    auto f = mb.function("main");
    f.halt();
    mb.setEntry("main");
    const Module module = mb.take();
    const LinkOutput out = link(module);
    // main was emitted second: entry must not be the image base.
    EXPECT_NE(out.image.entryAddr(), out.image.baseAddr());
    EXPECT_EQ(out.image.fetch(out.image.entryAddr()).op, Opcode::Halt);
}

TEST(Linker, CodeBaseRespected) {
    const Module module = tinyProgram();
    LinkOptions options;
    options.codeBase = 0x4000;
    const LinkOutput out = link(module, options);
    EXPECT_EQ(out.image.baseAddr(), 0x4000u);
    EXPECT_EQ(executeImage(out.image, module), 15);
}

TEST(Linker, SharedPoolPlacedAfterFunction) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.ldlConst(r1, 99999999).halt();
    const Module module = mb.take();
    const LinkOutput out = link(module);
    // Image = [ldl, halt, literal]
    EXPECT_EQ(out.stats.imageWords, 3u);
    EXPECT_EQ(out.image.at(out.image.baseAddr() + 8).kind, ImageWord::Kind::Literal);
    EXPECT_EQ(out.image.at(out.image.baseAddr() + 8).value, 99999999);
    EXPECT_EQ(executeImage(out.image, module), 99999999);
}

TEST(Linker, FallthroughPastLastBlockRejected) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.addi(r1, r0, 1); // no terminator
    Module module = mb.take();
    EXPECT_THROW((void)link(module), LinkError);
}

TEST(Linker, BbrWithoutMapRejected) {
    const Module module = tinyProgram();
    LinkOptions options;
    options.bbrPlacement = true;
    EXPECT_THROW((void)link(module, options), LinkError);
}

TEST(Linker, BbrOnUntransformedFallthroughRejected) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto next = f.newBlock("next");
    f.addi(r1, r0, 1); // falls through
    f.at(next).halt();
    const Module module = mb.take();
    FaultMap map(1024, 8);
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    EXPECT_THROW((void)link(module, options), LinkError);
}

TEST(Linker, BbrSkipsFaultyWords) {
    Module module = tinyProgram();
    applyBbrTransforms(module);
    FaultMap map(1024, 8);
    // Poison the first words so the entry block must move.
    for (std::uint32_t w = 0; w < 4; ++w) map.setFaultyFlat(w);
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    const LinkOutput out = link(module, options);
    EXPECT_GE(out.image.placements().front().byteAddr, 4u * 4u);
    EXPECT_GT(out.stats.gapWords, 0u);
    EXPECT_EQ(countPlacementViolations(out.image, map), 0u);
    EXPECT_EQ(executeImage(out.image, module), 15);
}

TEST(Linker, BbrUnplaceableBlockFailsLoudly) {
    Module module = tinyProgram();
    applyBbrTransforms(module);
    FaultMap map(1024, 8);
    // Leave only isolated single fault-free words: nothing >= 2 words fits.
    for (std::uint32_t w = 0; w < map.totalWords(); w += 2) map.setFaultyFlat(w);
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    EXPECT_THROW((void)link(module, options), LinkError);
}

TEST(Linker, BbrBlockLargerThanCacheRejected) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    for (int i = 0; i < 40; ++i) f.addi(r1, r1, 1);
    f.halt();
    Module module = mb.take(); // one 41-word block, untransformed
    FaultMap map(4, 8);        // a 32-word "cache"
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    EXPECT_THROW((void)link(module, options), LinkError);
}

TEST(Linker, LiteralReachEnforced) {
    // A shared pool placed beyond the 4KB page reach must be diagnosed.
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.ldlConst(r1, 424242);
    for (int i = 0; i < 1100; ++i) f.addi(r2, r2, 1); // push pool out of reach
    f.halt();
    const Module module = mb.take();
    EXPECT_THROW((void)link(module), LinkError);
}

TEST(Linker, BbrTransformsRestoreLiteralReach) {
    // The same out-of-reach program becomes linkable once the full BBR
    // pipeline moves the pool into the block and splits the giant block so
    // the literal sits next to its Ldl.
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.ldlConst(r1, 424242);
    for (int i = 0; i < 1100; ++i) f.addi(r2, r2, 1);
    f.halt();
    Module module = mb.take();
    applyBbrTransforms(module);
    const LinkOutput out = link(module);
    EXPECT_EQ(executeImage(out.image, module), 424242);
}

TEST(Linker, PlacementVerifierCountsViolations) {
    const Module module = tinyProgram();
    const LinkOutput out = link(module); // conventional: starts at word 0
    FaultMap map(1024, 8);
    map.setFaultyFlat(0); // first word of the image is now "faulty"
    EXPECT_EQ(countPlacementViolations(out.image, map), 1u);
}

/// Property: BBR placement never violates the fault map, for random maps at
/// the paper's worst operating point, across all benchmarks.
class BbrPlacementProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BbrPlacementProperty, NoViolationsAt400mV) {
    const FaultMapGenerator generator;
    Rng rng(GetParam());
    const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
    for (const auto& info : benchmarkList()) {
        Module module = buildBenchmark(info.name, WorkloadScale::Tiny);
        applyBbrTransforms(module);
        LinkOptions options;
        options.bbrPlacement = true;
        options.icacheFaultMap = &map;
        try {
            const LinkOutput out = link(module, options);
            EXPECT_EQ(countPlacementViolations(out.image, map), 0u) << info.name;
            // The static prover decides the same invariant over the image
            // CFG — strictly stronger diagnostics than the word counter.
            const auto proof = analysis::provePlacement(out.image, map, &module);
            EXPECT_TRUE(proof.verified) << info.name << ":\n"
                                        << analysis::formatProof(proof);
            EXPECT_GT(out.stats.gapWords, 0u) << info.name;
        } catch (const LinkError&) {
            // A genuinely unplaceable map is a yield loss, not a bug.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BbrPlacementProperty, ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace voltcache
