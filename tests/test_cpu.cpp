// Tests for the CPU substrate: memory, branch prediction, functional
// execution, and the timing model's sensitivity to cache latency — the
// paper's central performance mechanism (Section VI-B).
#include <gtest/gtest.h>

#include <limits>

#include "cpu/branch_predictor.h"
#include "cpu/memory.h"
#include "cpu/simulator.h"
#include "isa/builder.h"
#include "linker/linker.h"
#include "schemes/conventional.h"

namespace voltcache {
namespace {

using namespace regs;

// ---- Memory ----

TEST(Memory, ReadWriteRoundTrip) {
    Memory memory;
    memory.write(0x1000, -123);
    EXPECT_EQ(memory.read(0x1000), -123);
    EXPECT_EQ(memory.read(0x2000), 0); // untouched reads as zero
}

TEST(Memory, MisalignedAccessFaults) {
    Memory memory;
    EXPECT_THROW(memory.write(0x1001, 1), MemoryFault);
    EXPECT_THROW((void)memory.read(0x1002), MemoryFault);
}

TEST(Memory, BulkLoad) {
    Memory memory;
    memory.load(0x100, {1, 2, 3});
    EXPECT_EQ(memory.read(0x100), 1);
    EXPECT_EQ(memory.read(0x108), 3);
}

TEST(Memory, SparsePagesAllocateOnDemand) {
    Memory memory;
    EXPECT_EQ(memory.pageCount(), 0u);
    memory.write(0x0, 1);
    memory.write(0x10000000, 2);
    EXPECT_EQ(memory.pageCount(), 2u);
}

// ---- Branch predictor ----

TEST(Predictor, LearnsAlwaysTakenLoop) {
    BranchPredictor predictor;
    const std::uint32_t pc = 0x100;
    const std::uint32_t target = 0x80;
    // Train.
    for (int i = 0; i < 4; ++i) {
        const auto prediction = predictor.predictBranch(pc);
        predictor.resolve(prediction, pc, true, target);
    }
    const auto prediction = predictor.predictBranch(pc);
    EXPECT_TRUE(prediction.taken);
    EXPECT_TRUE(prediction.targetKnown);
    EXPECT_EQ(prediction.target, target);
}

TEST(Predictor, LearnsNotTaken) {
    BranchPredictor predictor;
    const std::uint32_t pc = 0x200;
    for (int i = 0; i < 4; ++i) {
        const auto prediction = predictor.predictBranch(pc);
        predictor.resolve(prediction, pc, false, 0);
    }
    EXPECT_FALSE(predictor.predictBranch(pc).taken);
}

TEST(Predictor, RasPredictsReturns) {
    BranchPredictor predictor;
    predictor.pushReturnAddress(0x1234);
    const auto prediction = predictor.predictReturn(0x500);
    EXPECT_TRUE(prediction.targetKnown);
    EXPECT_EQ(prediction.target, 0x1234u);
}

TEST(Predictor, RasDepthBounded) {
    BranchPredictor::Config config;
    config.rasEntries = 2;
    BranchPredictor predictor(config);
    predictor.pushReturnAddress(0x10);
    predictor.pushReturnAddress(0x20);
    predictor.pushReturnAddress(0x30); // evicts 0x10
    EXPECT_EQ(predictor.predictReturn(0).target, 0x30u);
    EXPECT_EQ(predictor.predictReturn(0).target, 0x20u);
    EXPECT_FALSE(predictor.predictReturn(0).targetKnown); // RAS empty, BTB cold
}

TEST(Predictor, MispredictChargingOptional) {
    BranchPredictor predictor;
    const auto prediction = predictor.predictJump(0x10);
    predictor.resolve(prediction, 0x10, true, 0x40, /*chargeMispredict=*/false);
    EXPECT_EQ(predictor.stats().mispredicts, 0u);
    const auto second = predictor.predictBranch(0x20);
    predictor.resolve(second, 0x20, !second.taken, 0x40, /*chargeMispredict=*/true);
    EXPECT_EQ(predictor.stats().mispredicts, 1u);
}

// ---- Simulator: functional semantics ----

struct SimHarness {
    explicit SimHarness(const Module& module, std::uint32_t icacheOverhead = 0)
        : linked(link(module)),
          icache(CacheOrganization{}, l2, icacheOverhead),
          dcache(CacheOrganization{}, l2),
          sim(linked.image, module.data, icache, dcache) {}

    L2Cache l2;
    LinkOutput linked;
    ConventionalCache icache;
    ConventionalCache dcache;
    Simulator sim;
};

TEST(Simulator, ArithmeticSemantics) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.li(r1, 7).li(r2, 3);
    f.mul(r3, r1, r2);  // 21
    f.div(r4, r1, r2);  // 2
    f.rem(r5, r1, r2);  // 1
    f.sub(r6, r1, r2);  // 4
    f.sll(r7, r2, r5);  // 6
    f.slt(r8, r2, r1);  // 1
    f.add(r1, r3, r4);
    f.add(r1, r1, r5);
    f.add(r1, r1, r6);
    f.add(r1, r1, r7);
    f.add(r1, r1, r8);  // 21+2+1+4+6+1 = 35
    f.halt();
    SimHarness h(mb.take());
    const auto stats = h.sim.run();
    EXPECT_TRUE(stats.halted);
    EXPECT_EQ(h.sim.reg(1), 35);
}

TEST(Simulator, DivisionEdgeCases) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.li(r1, 5).li(r2, 0);
    f.div(r3, r1, r2); // -1 by convention
    f.rem(r4, r1, r2); // dividend
    f.li(r5, std::numeric_limits<std::int32_t>::min()).li(r6, -1);
    f.div(r7, r5, r6); // INT_MIN
    f.rem(r8, r5, r6); // 0
    f.halt();
    SimHarness h(mb.take());
    (void)h.sim.run();
    EXPECT_EQ(h.sim.reg(3), -1);
    EXPECT_EQ(h.sim.reg(4), 5);
    EXPECT_EQ(h.sim.reg(7), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(h.sim.reg(8), 0);
}

TEST(Simulator, ZeroRegisterIgnoresWrites) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.li(r0, 99).add(r1, r0, r0).halt();
    SimHarness h(mb.take());
    (void)h.sim.run();
    EXPECT_EQ(h.sim.reg(0), 0);
    EXPECT_EQ(h.sim.reg(1), 0);
}

TEST(Simulator, LoadStoreAndDataSegments) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    f.li(r2, 0x100000);
    f.lw(r1, r2, 0);     // from the data segment: 11
    f.addi(r1, r1, 5);
    f.sw(r1, r2, 4);
    f.lw(r3, r2, 4);     // read back 16
    f.add(r1, r1, r3);   // 32
    f.halt();
    mb.data(0x100000, {11, 0});
    SimHarness h(mb.take());
    (void)h.sim.run();
    EXPECT_EQ(h.sim.reg(1), 32);
    EXPECT_EQ(h.sim.memory().read(0x100004), 16);
}

TEST(Simulator, CallAndReturn) {
    ModuleBuilder mb;
    auto doubleIt = mb.function("double_it");
    doubleIt.add(r1, r1, r1).ret();
    auto f = mb.function("main");
    f.li(r1, 21).call("double_it").halt();
    mb.setEntry("main");
    SimHarness h(mb.take());
    const auto stats = h.sim.run();
    EXPECT_EQ(h.sim.reg(1), 42);
    EXPECT_TRUE(stats.halted);
}

TEST(Simulator, MaxInstructionsStopsEarly) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    f.jmp(loop);
    f.at(loop).addi(r1, r1, 1).jmp(loop); // infinite
    const Module module = mb.take();
    const LinkOutput linked = link(module);
    L2Cache l2;
    ConventionalCache icache(CacheOrganization{}, l2);
    ConventionalCache dcache(CacheOrganization{}, l2);
    PipelineConfig config;
    config.maxInstructions = 1000;
    Simulator sim(linked.image, module.data, icache, dcache, config);
    const auto stats = sim.run();
    EXPECT_FALSE(stats.halted);
    EXPECT_EQ(stats.instructions, 1000u);
}

TEST(Simulator, CountsEventClasses) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto done = f.newBlock("done");
    f.li(r2, 10).li(r3, 0x100000);
    f.jmp(loop);
    f.at(loop);
    f.beq(r2, r0, done);
    f.lw(r4, r3, 0);
    f.sw(r4, r3, 4);
    f.addi(r2, r2, -1);
    f.jmp(loop);
    f.at(done).halt();
    SimHarness h(mb.take());
    const auto stats = h.sim.run();
    EXPECT_EQ(stats.loads, 10u);
    EXPECT_EQ(stats.stores, 10u);
    EXPECT_EQ(stats.condBranches, 11u);
    EXPECT_EQ(stats.takenBranches, 1u);
    EXPECT_EQ(stats.activity.l2WriteThroughs, 10u);
    EXPECT_GT(stats.activity.l1iAccesses, 0u);
}

// ---- Simulator: timing sensitivity ----

namespace {
Module loadUseChain(int n) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto done = f.newBlock("done");
    f.li(r2, n).li(r3, 0x100000);
    f.sw(r3, r3, 0);
    f.jmp(loop);
    f.at(loop);
    f.beq(r2, r0, done);
    f.lw(r3, r3, 0);      // pointer-chasing load
    f.addi(r4, r3, 1);    // immediate use
    f.addi(r2, r2, -1);
    f.jmp(loop);
    f.at(done).halt();
    mb.data(0x100000, {0x100000});
    return mb.take();
}
} // namespace

TEST(Timing, LoadUseDependencyCostsL1Latency) {
    const Module chained = loadUseChain(1000);
    SimHarness h(chained);
    const auto stats = h.sim.run();
    // Each iteration pays the 2-cycle load-use delay: CPI well above the
    // 2-wide ideal of 0.5.
    EXPECT_GT(static_cast<double>(stats.cycles), 2.0 * 1000.0);
    EXPECT_GT(stats.dmemStallCycles, 500u);
}

TEST(Timing, ExtraICacheCycleSlowsExecution) {
    // The paper's key sensitivity: +1 cycle of L1 latency costs real time.
    const Module module = loadUseChain(2000);
    SimHarness fast(module, 0);
    SimHarness slow(module, 1);
    const auto fastStats = fast.sim.run();
    const auto slowStats = slow.sim.run();
    EXPECT_GT(slowStats.cycles, fastStats.cycles);
}

TEST(Timing, StallDecompositionCoversAllCycles) {
    const Module module = loadUseChain(500);
    SimHarness h(module);
    const auto stats = h.sim.run();
    const std::uint64_t total = stats.busyCycles() + stats.ifetchStallCycles +
                                stats.dmemStallCycles + stats.branchStallCycles +
                                stats.execStallCycles;
    EXPECT_EQ(total, stats.cycles);
}

namespace {
/// A hot loop (I-cache warm after the first iteration) whose body is either
/// fully independent ALU ops or one serial dependence chain.
Module aluLoop(bool independent, int iterations) {
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto done = f.newBlock("done");
    f.li(r9, iterations);
    f.jmp(loop);
    f.at(loop);
    f.beq(r9, r0, done);
    for (int i = 0; i < 16; ++i) {
        if (independent) {
            f.addi(static_cast<Reg>(1 + (i % 8)), r0, i);
        } else {
            f.addi(r1, r1, 1);
        }
    }
    f.addi(r9, r9, -1);
    f.jmp(loop);
    f.at(done).halt();
    return mb.take();
}
} // namespace

TEST(Timing, IndependentAluDualIssues) {
    SimHarness h(aluLoop(true, 2000));
    const auto stats = h.sim.run();
    EXPECT_GT(stats.ipc(), 1.6);
}

TEST(Timing, DependentAluChainIsSerial) {
    SimHarness h(aluLoop(false, 2000));
    const auto stats = h.sim.run();
    // The 16-op serial chain dominates each 19-instruction iteration.
    EXPECT_LT(stats.ipc(), 1.25);
    EXPECT_GT(stats.ipc(), 0.8);
}

TEST(Timing, DualIssueBeatsSerialChain) {
    SimHarness independent(aluLoop(true, 2000));
    SimHarness serial(aluLoop(false, 2000));
    const auto a = independent.sim.run();
    const auto b = serial.sim.run();
    EXPECT_LT(a.cycles, b.cycles);
}

TEST(Timing, MispredictsInflateBranchStalls) {
    // A data-dependent unpredictable branch pattern (LCG parity).
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto odd = f.newBlock("odd");
    auto even = f.newBlock("even");
    auto next = f.newBlock("next");
    auto done = f.newBlock("done");
    f.li(r2, 2000).li(r3, 12345);
    f.jmp(loop);
    f.at(loop);
    f.beq(r2, r0, done);
    f.ldlConst(r4, 1103515245);
    f.mul(r3, r3, r4);
    f.addi(r3, r3, 12345);
    f.srli(r5, r3, 16);
    f.andi(r5, r5, 1);
    f.bne(r5, r0, odd); // falls through to 'even'
    f.at(even);
    f.addi(r1, r1, 1);
    f.jmp(next);
    f.at(odd);
    f.addi(r1, r1, 2);
    f.jmp(next);
    f.at(next);
    f.addi(r2, r2, -1);
    f.jmp(loop);
    f.at(done).halt();
    SimHarness h(mb.take());
    const auto stats = h.sim.run();
    EXPECT_GT(stats.mispredicts, 400u); // ~50% of 2000 hard branches
    EXPECT_GT(stats.branchStallCycles, stats.mispredicts * 5);
}


TEST(Timing, ExtraDcacheCycleBubblesEveryLoad) {
    // The +1-cycle D-cache (8T-style) stalls the in-order pipe behind every
    // load, so a load-dense loop slows even without dependent consumers.
    ModuleBuilder mb;
    auto f = mb.function("main");
    auto loop = f.newBlock("loop");
    auto done = f.newBlock("done");
    f.li(r9, 2000).li(r10, 0x100000);
    f.jmp(loop);
    f.at(loop);
    f.beq(r9, r0, done);
    f.lw(r1, r10, 0); // result never used
    f.lw(r2, r10, 4);
    f.addi(r9, r9, -1);
    f.jmp(loop);
    f.at(done).halt();
    const Module module = mb.take();
    const LinkOutput linked = link(module);

    auto cyclesWithOverhead = [&](std::uint32_t overhead) {
        L2Cache l2;
        ConventionalCache icache(CacheOrganization{}, l2);
        ConventionalCache dcache(CacheOrganization{}, l2, overhead, "d");
        Simulator sim(linked.image, module.data, icache, dcache);
        return sim.run().cycles;
    };
    const auto base = cyclesWithOverhead(0);
    const auto slow = cyclesWithOverhead(1);
    // 4000 loads, each bubbling at least one extra cycle.
    EXPECT_GT(slow, base + 3000);
}

} // namespace
} // namespace voltcache
