// Tests for the BBR code transformations (paper Section IV-B2, Fig. 8) and
// the CFG helpers. The strongest check is semantic: a transformed program
// must compute the same result as the original.
#include <gtest/gtest.h>

#include "compiler/cfg.h"
#include "compiler/passes.h"
#include "cpu/simulator.h"
#include "isa/builder.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using namespace regs;

/// Link and functionally execute a module on defect-free caches; returns r1.
std::int32_t execute(const Module& module) {
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    const RunStats stats = sim.run();
    EXPECT_TRUE(stats.halted);
    return sim.reg(1);
}

/// A small program with fall-throughs, a large block, and shared literals.
Module sampleModule() {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto big = f.newBlock("big");
    auto take = f.newBlock("take");
    auto join = f.newBlock("join");
    f.li(r1, 0);
    f.li(r2, 10);
    f.blt(r2, r0, take); // never taken; falls through to 'big'
    f.at(big);
    for (int i = 0; i < 30; ++i) f.addi(r1, r1, 1); // oversized block
    f.ldlConst(r3, 123456789);
    f.add(r1, r1, r3); // falls through to 'take'
    f.at(take);
    f.ldlConst(r3, 100000);
    f.add(r1, r1, r3);
    f.jmp(join);
    f.at(join);
    f.halt();
    return mb.take();
}

TEST(InsertJumps, SealsFallthroughBlocks) {
    Module module = sampleModule();
    const TransformStats stats = insertFallthroughJumps(module);
    EXPECT_GE(stats.jumpsInserted, 2u);
    for (const auto& fn : module.functions) {
        for (std::size_t b = 0; b + 1 < fn.blocks.size(); ++b) {
            EXPECT_FALSE(fn.blocks[b].hasFallthrough())
                << fn.name << ":" << fn.blocks[b].label;
        }
    }
    module.validate();
}

TEST(InsertJumps, InsertedJumpTargetsNextBlock) {
    Module module = sampleModule();
    insertFallthroughJumps(module);
    const auto& fn = module.functions[0];
    const auto& entry = fn.blocks[0];
    const auto& last = entry.insts.back();
    EXPECT_EQ(last.op, Opcode::Jal);
    EXPECT_EQ(last.rd, kZeroRegister);
    const auto* reloc = entry.relocFor(static_cast<std::uint32_t>(entry.insts.size() - 1));
    ASSERT_NE(reloc, nullptr);
    EXPECT_EQ(reloc->targetBlock, 1u);
}

TEST(InsertJumps, IdempotentOnSealedModule) {
    Module module = sampleModule();
    insertFallthroughJumps(module);
    const TransformStats again = insertFallthroughJumps(module);
    EXPECT_EQ(again.jumpsInserted, 0u);
}

TEST(InsertJumps, PreservesSemantics) {
    Module original = sampleModule();
    Module transformed = sampleModule();
    insertFallthroughJumps(transformed);
    EXPECT_EQ(execute(original), execute(transformed));
}

TEST(MoveLiterals, PoolsBecomeBlockLocal) {
    Module module = sampleModule();
    const TransformStats stats = moveLiteralPools(module);
    EXPECT_GE(stats.literalsMoved, 2u);
    for (const auto& fn : module.functions) {
        EXPECT_TRUE(fn.sharedLiteralPool.empty());
        for (const auto& block : fn.blocks) {
            for (const auto& reloc : block.relocs) {
                EXPECT_NE(reloc.kind, RelocKind::SharedLiteral);
            }
        }
    }
    module.validate();
}

TEST(MoveLiterals, PreservesSemantics) {
    Module original = sampleModule();
    Module transformed = sampleModule();
    moveLiteralPools(transformed);
    insertFallthroughJumps(transformed); // literal pools forbid fall-through past them
    EXPECT_EQ(execute(original), execute(transformed));
}

TEST(MoveLiterals, DeduplicatesWithinBlock) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.ldlConst(r1, 5555555).ldlConst(r2, 5555555).halt();
    Module module = mb.take();
    moveLiteralPools(module);
    EXPECT_EQ(module.functions[0].blocks[0].literalPool.size(), 1u);
}

TEST(BreakBlocks, NoBlockExceedsLimit) {
    Module module = sampleModule();
    moveLiteralPools(module);
    insertFallthroughJumps(module);
    const TransformStats stats = breakLargeBlocks(module, 12);
    EXPECT_GE(stats.blocksBroken, 1u);
    for (const auto& fn : module.functions) {
        for (const auto& block : fn.blocks) {
            EXPECT_LE(block.sizeWords(), 12u) << fn.name << ":" << block.label;
        }
    }
    module.validate();
}

TEST(BreakBlocks, PiecesChainWithJumps) {
    Module module = sampleModule();
    moveLiteralPools(module);
    insertFallthroughJumps(module);
    breakLargeBlocks(module, 12);
    const auto& fn = module.functions[0];
    // Find a piece block: label contains "_p".
    bool foundPiece = false;
    for (const auto& block : fn.blocks) {
        if (block.label.find("_p") != std::string::npos) foundPiece = true;
    }
    EXPECT_TRUE(foundPiece);
    for (std::size_t b = 0; b + 1 < fn.blocks.size(); ++b) {
        EXPECT_FALSE(fn.blocks[b].hasFallthrough());
    }
}

TEST(BreakBlocks, PreservesSemantics) {
    Module original = sampleModule();
    Module transformed = sampleModule();
    moveLiteralPools(transformed);
    insertFallthroughJumps(transformed);
    breakLargeBlocks(transformed, 12);
    EXPECT_EQ(execute(original), execute(transformed));
}

TEST(BreakBlocks, RemapsBranchTargetsAcrossShift) {
    // A branch over a big block must still reach the same code after the
    // big block splits and shifts every later index.
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto big = f.newBlock("big");
    auto dest = f.newBlock("dest");
    f.li(r1, 1);
    f.bne(r1, r0, dest); // branch over 'big'
    f.at(big);
    for (int i = 0; i < 40; ++i) f.addi(r1, r1, 100);
    f.jmp(dest);
    f.at(dest);
    f.addi(r1, r1, 7);
    f.halt();
    Module module = mb.take();
    Module transformed = module;
    insertFallthroughJumps(transformed);
    breakLargeBlocks(transformed, 8);
    insertFallthroughJumps(module);
    EXPECT_EQ(execute(module), execute(transformed));
    EXPECT_EQ(execute(transformed), 8); // 1 + 7, big block skipped
}

TEST(ApplyBbr, FullPipelineOnAllBenchmarks) {
    for (const auto& info : benchmarkList()) {
        Module module = buildBenchmark(info.name, WorkloadScale::Tiny);
        const TransformStats stats = applyBbrTransforms(module);
        (void)stats;
        for (const auto& fn : module.functions) {
            EXPECT_TRUE(fn.sharedLiteralPool.empty()) << fn.name;
            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                EXPECT_LE(fn.blocks[b].sizeWords(), kDefaultMaxBlockWords)
                    << info.name << " " << fn.name << ":" << fn.blocks[b].label;
                EXPECT_FALSE(fn.blocks[b].hasFallthrough())
                    << info.name << " " << fn.name << ":" << fn.blocks[b].label;
            }
        }
    }
}

TEST(ApplyBbr, SemanticsPreservedOnAllBenchmarks) {
    for (const auto& info : benchmarkList()) {
        Module original = buildBenchmark(info.name, WorkloadScale::Tiny);
        Module transformed = buildBenchmark(info.name, WorkloadScale::Tiny);
        applyBbrTransforms(transformed);
        EXPECT_EQ(execute(original), execute(transformed)) << info.name;
    }
}

TEST(Cfg, SuccessorsOfConditionalBlock) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto target = f.newBlock("target");
    f.beq(r1, r2, target);
    f.at(target).halt();
    const Module module = mb.take();
    const auto successors = successorsOf(module.functions[0], 0);
    ASSERT_EQ(successors.targets.size(), 1u);
    EXPECT_EQ(successors.targets[0], 1u);
    EXPECT_TRUE(successors.fallsThrough);
    const auto terminal = successorsOf(module.functions[0], 1);
    EXPECT_TRUE(terminal.halts);
    EXPECT_FALSE(terminal.fallsThrough);
}

TEST(Cfg, CallsAreNotSuccessors) {
    ModuleBuilder mb;
    auto callee = mb.function("callee");
    callee.ret();
    auto f = mb.function("main");
    f.call("callee").halt();
    mb.setEntry("main");
    const Module module = mb.take();
    const auto successors = successorsOf(*module.findFunction("main"), 0);
    EXPECT_TRUE(successors.targets.empty());
    EXPECT_TRUE(successors.halts);
}

TEST(Cfg, BlockSizesSkipEmptyBlocks) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.newBlock("never_filled");
    f.addi(r1, r0, 1);
    f.halt();
    const Module module = mb.take();
    const auto sizes = blockSizesWords(module);
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_EQ(sizes[0], 2u);
}

} // namespace
} // namespace voltcache
