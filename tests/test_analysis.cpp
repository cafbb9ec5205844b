// Tests for the static-analysis layer: the image CFG builder, the BBR
// placement prover, and the module lint pass (`voltcache verify`'s engine).
#include <gtest/gtest.h>

#include "analysis/image_cfg.h"
#include "analysis/lint.h"
#include "analysis/placement_prover.h"
#include "analysis/verify.h"
#include "compiler/passes.h"
#include "cpu/simulator.h"
#include "isa/builder.h"
#include "linker/linker.h"
#include "schemes/bbr.h"
#include "schemes/conventional.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using namespace regs;
using namespace analysis;
using voltcache::literals::operator""_mV;

Module loopProgram() {
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

bool hasFinding(const std::vector<LintFinding>& findings, LintCode code) {
    for (const auto& finding : findings) {
        if (finding.code == code) return true;
    }
    return false;
}

// ---------------------------------------------------------------- ImageCfg

TEST(ImageCfg, SingleBlockAllReachable) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.addi(r1, r0, 7).halt();
    const LinkOutput out = link(mb.take());
    ImageCfg cfg(out.image);
    EXPECT_EQ(cfg.reachableAddrs().size(), 2u);
    EXPECT_TRUE(cfg.diagnostics().empty());
    EXPECT_TRUE(cfg.deadBlocks().empty());
}

TEST(ImageCfg, BackEdgeLoopTerminatesAndCoversAllBlocks) {
    const Module module = loopProgram();
    const LinkOutput out = link(module);
    ImageCfg cfg(out.image);
    // Every instruction word of every block is reachable; the back edge to
    // 'loop' must not loop the walk.
    EXPECT_EQ(cfg.reachableAddrs().size(), out.stats.codeWords);
    EXPECT_TRUE(cfg.deadBlocks().empty());
    EXPECT_FALSE(cfg.hasErrors());
}

TEST(ImageCfg, CallGraphMakesCalleeAndReturnSiteReachable) {
    ModuleBuilder mb;
    auto helper = mb.function("helper");
    helper.addi(r3, r0, 9).ret();
    auto f = mb.function("main");
    f.call("helper");
    f.addi(r1, r3, 0); // return site: reachable only via the call fall-through
    f.halt();
    mb.setEntry("main");
    const Module module = mb.take();
    const LinkOutput out = link(module);
    ImageCfg cfg(out.image);
    EXPECT_EQ(cfg.reachableAddrs().size(), out.stats.codeWords);
    EXPECT_TRUE(cfg.deadBlocks().empty());
}

TEST(ImageCfg, IndirectJalrOverapproximatesToAllFunctionEntries) {
    ModuleBuilder mb;
    auto target = mb.function("maybe_called");
    target.halt();
    auto f = mb.function("main");
    f.addi(r5, r0, 0);
    f.halt();
    mb.setEntry("main");
    Module module = mb.take();
    // Computed jump: nothing names 'maybe_called', but a jalr through r5
    // could reach any entry — the over-approximation keeps it live.
    module.findFunction("main")->blocks[0].insts.back() =
        Instruction{Opcode::Jalr, r0, r5, 0, 0};
    const LinkOutput out = link(module);
    ImageCfg cfg(out.image);
    EXPECT_EQ(cfg.deadBlocks().size(), 0u);
    EXPECT_EQ(cfg.reachableAddrs().size(), out.stats.codeWords);
}

TEST(ImageCfg, DeadBlockAfterUnconditionalJumpIsFound) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto dead = f.newBlock("dead");
    auto live = f.newBlock("live");
    f.jmp(live);
    f.at(dead).addi(r1, r1, 1).addi(r1, r1, 2).halt(); // nothing targets it
    f.at(live).halt();
    const Module module = mb.take();
    const LinkOutput out = link(module);
    ImageCfg cfg(out.image);
    ASSERT_EQ(cfg.deadBlocks().size(), 1u);
    EXPECT_EQ(cfg.deadWords(), 3u);
    const PlacedBlock& deadBlock = out.image.placements()[cfg.deadBlocks()[0]];
    EXPECT_FALSE(cfg.isReachable(deadBlock.byteAddr));
    EXPECT_TRUE(cfg.blockPathTo(deadBlock.byteAddr).empty());
}

TEST(ImageCfg, BlockPathLeadsFromEntryToTarget) {
    const Module module = loopProgram();
    const LinkOutput out = link(module);
    ImageCfg cfg(out.image);
    const PlacedBlock& done = out.image.placements().back();
    const auto path = cfg.blockPathTo(done.byteAddr);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), out.image.entryAddr());
    EXPECT_EQ(path.back(), done.byteAddr);
}

// Hand-built images exercise the malformed shapes the linker never emits.
TEST(ImageCfg, FallthroughIntoLiteralIsAnError) {
    Image image(0, 2);
    image.at(0).kind = ImageWord::Kind::Instruction;
    image.at(0).inst = Instruction{Opcode::Addi, r1, r0, 0, 1}; // runs off the end
    image.at(4).kind = ImageWord::Kind::Literal;
    image.at(4).value = 42;
    image.setEntryAddr(0);
    ImageCfg cfg(image);
    ASSERT_EQ(cfg.diagnostics().size(), 1u);
    EXPECT_EQ(cfg.diagnostics()[0].kind, CfgDiagKind::NonInstructionFetch);
    EXPECT_TRUE(cfg.hasErrors());
}

TEST(ImageCfg, BranchOutsideImageIsAnError) {
    Image image(0, 1);
    image.at(0).kind = ImageWord::Kind::Instruction;
    image.at(0).inst = Instruction{Opcode::Jal, r0, 0, 0, 100}; // way past the end
    image.setEntryAddr(0);
    ImageCfg cfg(image);
    ASSERT_EQ(cfg.diagnostics().size(), 1u);
    EXPECT_EQ(cfg.diagnostics()[0].kind, CfgDiagKind::TargetOutsideImage);
}

TEST(ImageCfg, MidBlockTargetIsAWarningNotAnError) {
    Image image(0, 3);
    for (std::uint32_t w = 0; w < 3; ++w) {
        image.at(w * 4).kind = ImageWord::Kind::Instruction;
        image.at(w * 4).inst = Instruction{Opcode::Halt, 0, 0, 0, 0};
    }
    image.at(0).inst = Instruction{Opcode::Jal, r0, 0, 0, 2}; // into block middle
    PlacedBlock block;
    block.byteAddr = 0;
    block.codeWords = 3;
    image.addPlacement(block);
    image.setEntryAddr(0);
    ImageCfg cfg(image);
    ASSERT_EQ(cfg.diagnostics().size(), 1u);
    EXPECT_EQ(cfg.diagnostics()[0].kind, CfgDiagKind::TargetNotBlockStart);
    EXPECT_FALSE(cfg.hasErrors());
}

// ------------------------------------------------------------------ Prover

TEST(Prover, FindsExactlyTheKnownViolatingWord) {
    const Module module = loopProgram();
    const LinkOutput out = link(module); // contiguous from word 0
    FaultMap map(1024, 8);
    map.setFaultyFlat(1); // second image word: reachable (inside main:entry)
    const PlacementProof proof = provePlacement(out.image, map, &module);
    EXPECT_FALSE(proof.verified);
    ASSERT_EQ(proof.violations.size(), 1u);
    EXPECT_EQ(proof.violations[0].byteAddr, 4u);
    EXPECT_EQ(proof.violations[0].cacheWord, 1u);
    ASSERT_FALSE(proof.violations[0].blockChain.empty());
    EXPECT_EQ(proof.violations[0].blockChain.front(), out.image.entryAddr());
    EXPECT_NE(proof.violations[0].description.find("main:entry"), std::string::npos);
}

TEST(Prover, IgnoresFaultsUnderDeadCodeUnlikeTheWordCounter) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto dead = f.newBlock("dead");
    auto live = f.newBlock("live");
    f.jmp(live);
    f.at(dead).addi(r1, r1, 1).halt();
    f.at(live).halt();
    const Module module = mb.take();
    const LinkOutput out = link(module);
    FaultMap map(1024, 8);
    // Poison the cache word under the dead block's first instruction.
    const PlacedBlock& deadBlock = out.image.placements()[1];
    map.setFaultyFlat((deadBlock.byteAddr / 4) % map.totalWords());
    // The occupancy counter flags it; the CFG-based prover knows no fetch
    // can ever reach it.
    EXPECT_EQ(countPlacementViolations(out.image, map), 1u);
    const PlacementProof proof = provePlacement(out.image, map, &module);
    EXPECT_TRUE(proof.verified);
    EXPECT_EQ(proof.deadBlocks, 1u);
}

TEST(Prover, VerifiesEveryBbrLinkAcross100SeededMaps) {
    Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
    applyBbrTransforms(module);
    const FaultMapGenerator generator;
    std::uint32_t verified = 0;
    std::uint32_t yieldLosses = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        Rng rng(seed);
        const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
        LinkOptions options;
        options.bbrPlacement = true;
        options.icacheFaultMap = &map;
        try {
            const LinkOutput out = link(module, options);
            const PlacementProof proof = provePlacement(out.image, map, &module);
            EXPECT_TRUE(proof.verified) << "seed " << seed << ":\n" << formatProof(proof);
            EXPECT_EQ(countPlacementViolations(out.image, map), 0u) << "seed " << seed;
            ++verified;
        } catch (const LinkError&) {
            ++yieldLosses; // genuinely unplaceable chip, not a prover concern
        }
    }
    EXPECT_EQ(verified + yieldLosses, 100u);
    EXPECT_GT(verified, 50u); // tiny blocks place on most 400mV chips
}

TEST(Prover, RuntimeEnforcementNeverFiresOnAVerifiedImage) {
    Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
    applyBbrTransforms(module);
    const FaultMapGenerator generator;
    std::uint32_t simulated = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
        LinkOptions options;
        options.bbrPlacement = true;
        options.icacheFaultMap = &map;
        std::optional<LinkOutput> out;
        try {
            out = analysis::linkVerified(module, options);
        } catch (const LinkError&) {
            continue;
        }
        // BbrICache throws PlacementViolation on any fetch of a defective
        // word; a statically-verified image must run to Halt without one.
        L2Cache l2;
        CacheOrganization org;
        BbrICache icache(org, map, l2, BbrICache::Mode::DirectMapped);
        ConventionalCache dcache(org, l2);
        Simulator sim(out->image, module.data, icache, dcache);
        RunStats stats{};
        EXPECT_NO_THROW(stats = sim.run()) << "seed " << seed;
        EXPECT_TRUE(stats.halted);
        ++simulated;
    }
    EXPECT_GT(simulated, 0u);
}

TEST(Prover, LinkVerifiedRejectsAMismatchedMap) {
    Module module = loopProgram();
    applyBbrTransforms(module);
    const FaultMapGenerator generator;
    Rng rng(7);
    const FaultMap linkMap = generator.generate(rng, 400_mV, 1024, 8);
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &linkMap;
    const LinkOutput out = link(module, options);

    Rng rng2(8);
    const FaultMap otherMap = generator.generate(rng2, 400_mV, 1024, 8);
    const PlacementProof proof = provePlacement(out.image, otherMap, &module);
    EXPECT_FALSE(proof.verified); // 27.5% word failure: a clean overlap is
                                  // statistically impossible
    EXPECT_FALSE(proof.violations.empty());
    EXPECT_FALSE(formatProof(proof).empty());
}

// -------------------------------------------------------------------- Lint

TEST(Lint, EmptyModuleReportsMissingEntry) {
    const Module module;
    const auto findings = lintModule(module);
    EXPECT_TRUE(hasFinding(findings, LintCode::EntryMissing));
    EXPECT_TRUE(hasLintErrors(findings));
}

TEST(Lint, CleanTransformedModulePassesBbrMode) {
    Module module = loopProgram();
    applyBbrTransforms(module);
    const auto findings = lintModule(module);
    EXPECT_FALSE(hasLintErrors(findings)) << formatFindings(findings);
}

TEST(Lint, UnsealedFallthroughIsAnErrorInBbrMode) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto next = f.newBlock("next");
    f.addi(r1, r0, 1); // falls through
    f.at(next).halt();
    const Module module = mb.take();
    LintOptions options;
    options.bbrMode = true;
    EXPECT_TRUE(hasFinding(lintModule(module, options), LintCode::FallthroughNotSealed));
    options.bbrMode = false;
    EXPECT_FALSE(hasFinding(lintModule(module, options), LintCode::FallthroughNotSealed));
}

TEST(Lint, FallthroughPastFunctionEndIsAlwaysAnError) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.addi(r1, r0, 1); // last block, no terminator
    const Module module = mb.take();
    LintOptions options;
    options.bbrMode = false;
    EXPECT_TRUE(
        hasFinding(lintModule(module, options), LintCode::FallthroughPastFunctionEnd));
}

TEST(Lint, FallthroughIntoOwnPoolIsAnError) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto next = f.newBlock("next");
    f.ldlConst(r1, 123456789);
    f.at(next).halt();
    Module module = mb.take();
    moveLiteralPools(module); // gives the entry block its own pool...
    // ...then strip the jump insertFallthroughJumps would add, leaving the
    // ill-formed shape: code falling into its own literals.
    LintOptions options;
    options.bbrMode = false;
    EXPECT_TRUE(hasFinding(lintModule(module, options), LintCode::FallthroughIntoPool));
}

TEST(Lint, OversizedBlockAgainstTheMapsLargestChunk) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    for (int i = 0; i < 20; ++i) f.addi(r1, r1, 1);
    f.halt(); // one 21-word block
    const Module module = mb.take();
    LintOptions options;
    options.maxBlockWords = 12;
    const auto findings = lintModule(module, options);
    EXPECT_TRUE(hasFinding(findings, LintCode::OversizedBlock));
    options.maxBlockWords = 21;
    EXPECT_FALSE(hasFinding(lintModule(module, options), LintCode::OversizedBlock));
}

TEST(Lint, LiteralBeyondReachForAnyPlacementIsAnError) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.ldlConst(r1, 424242);
    for (int i = 0; i < 1100; ++i) f.addi(r2, r2, 1); // pool pushed out of reach
    f.halt();
    const Module module = mb.take();
    LintOptions options;
    options.bbrMode = false;
    const auto findings = lintModule(module, options);
    EXPECT_TRUE(hasFinding(findings, LintCode::LiteralOutOfReach));
    // The BBR pipeline moves the pool next to the load: lint comes up clean.
    Module transformed = module;
    applyBbrTransforms(transformed);
    EXPECT_FALSE(
        hasFinding(lintModule(transformed, options), LintCode::LiteralOutOfReach));
}

TEST(Lint, BranchWithoutRelocationIsAnError) {
    Module module;
    Function fn;
    fn.name = "main";
    BasicBlock block;
    block.label = "entry";
    block.insts.push_back(Instruction{Opcode::Beq, 0, 1, 2, 0}); // no reloc
    block.insts.push_back(Instruction{Opcode::Halt, 0, 0, 0, 0});
    fn.blocks.push_back(block);
    module.functions.push_back(fn);
    const auto findings = lintModule(module);
    EXPECT_TRUE(hasFinding(findings, LintCode::MissingRelocation));
}

TEST(Lint, BranchToNonexistentBlockIsAnError) {
    Module module;
    Function fn;
    fn.name = "main";
    BasicBlock block;
    block.label = "entry";
    block.insts.push_back(Instruction{Opcode::Beq, 0, 1, 2, 0});
    block.insts.push_back(Instruction{Opcode::Halt, 0, 0, 0, 0});
    Relocation reloc;
    reloc.instIndex = 0;
    reloc.kind = RelocKind::BlockTarget;
    reloc.targetBlock = 5; // not a block start — the function has one block
    block.relocs.push_back(reloc);
    fn.blocks.push_back(block);
    module.functions.push_back(fn);
    const auto findings = lintModule(module);
    EXPECT_TRUE(hasFinding(findings, LintCode::BadRelocation));
    // And lint collects findings instead of throwing like validate().
    EXPECT_THROW(module.validate(), std::invalid_argument);
}

TEST(Lint, UnreachableBlockIsAWarningWithDeadWordCount) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto dead = f.newBlock("dead");
    auto live = f.newBlock("live");
    f.jmp(live);
    f.at(dead).addi(r1, r1, 1).halt();
    f.at(live).halt();
    const Module module = mb.take();
    const auto findings = lintModule(module);
    ASSERT_TRUE(hasFinding(findings, LintCode::UnreachableBlock));
    EXPECT_FALSE(hasLintErrors(findings)); // warning only
}

TEST(Lint, UncalledFunctionIsAWarning) {
    ModuleBuilder mb;
    auto orphan = mb.function("orphan");
    orphan.halt();
    auto f = mb.function("main");
    f.halt();
    mb.setEntry("main");
    const Module module = mb.take();
    const auto findings = lintModule(module);
    EXPECT_TRUE(hasFinding(findings, LintCode::UnreachableFunction));
}

TEST(Lint, IndirectCallsDisableTheCallGraphCheck) {
    ModuleBuilder mb;
    auto orphan = mb.function("orphan");
    orphan.halt();
    auto f = mb.function("main");
    f.addi(r5, r0, 0);
    f.halt();
    mb.setEntry("main");
    Module module = mb.take();
    module.findFunction("main")->blocks[0].insts.back() =
        Instruction{Opcode::Jalr, r0, r5, 0, 0};
    EXPECT_FALSE(hasFinding(lintModule(module), LintCode::UnreachableFunction));
}

TEST(Lint, MaxPlaceableBlockWordsMergesAcrossWraparound) {
    FaultMap clean(4, 8);
    EXPECT_EQ(maxPlaceableBlockWords(clean), 32u);
    FaultMap map(4, 8); // 32 words
    map.setFaultyFlat(10);
    map.setFaultyFlat(20);
    // Runs: [0,10) = 10, [11,20) = 9, [21,32) = 11; Algorithm 1 wraps, so
    // [21,32)+[0,10) is one 21-word modular run.
    EXPECT_EQ(maxPlaceableBlockWords(map), 21u);
    map.setFaultyFlat(0);
    EXPECT_EQ(maxPlaceableBlockWords(map), 11u);
}

} // namespace
} // namespace voltcache
