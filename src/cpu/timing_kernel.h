// The two-wide in-order pipeline timing model, factored out of the
// execution-driven Simulator so that the trace-replay engine (core/replay.h)
// runs the *same* timing code — cycle accounting, stall attribution, issue
// constraints, D-port occupancy — against a recorded architectural stream.
// Bit-identical results between execution and replay are guaranteed by
// construction: there is exactly one copy of the timing semantics,
// `issueOne`, the step that issues and executes one instruction on one
// PipelineState. It has two callers:
//   * runPipeline loops it over one run — execution, through the
//     Simulator's ExecDriver;
//   * replay's op-major loop calls it once per (tape op, lane), with a
//     Driver that views a single tape op (and, on a BBR lane, that lane's
//     translation, trial pc and predictor).
// The Driver policy only supplies the dynamic facts (instruction stream,
// data addresses, branch outcomes) plus the functional side effects
// execution needs and replay skips.
//
// Driver concept (all methods hot; drivers inline everything):
//   const Instruction& inst();          // instruction at the current position
//   std::uint32_t pc();                 // its architectural byte address
//   std::uint32_t loadAddr();           // Lw effective address
//   std::uint32_t literalAddr();        // Ldl effective address (pc-relative)
//   std::uint32_t storeAddr();          // Sw effective address
//   bool condTaken();                   // conditional branch direction
//   std::uint32_t directTarget();       // Jal / conditional-branch target
//   std::uint32_t jalrTarget();         // Jalr target
//   bool resolveJump/Branch/Return(pc, [taken,] target);  // predictor outcome
//   void pushReturnAddress(addr);
//   void writeLui/writeAlu/writeLink(); // exec: register value side effects
//   void writeLoad(addr); void doStore(addr);
//   void notifyIssue();                 // exec: observer onInstruction hook
//   void notifyControlFlow(taken, nextPc, correct);
//   void stepFallthrough();             // advance position past the op
//   void stepBranch(taken, target) / stepJump(target) / stepJalr(target);
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "cpu/simulator.h"
#include "isa/instruction.h"
#include "schemes/scheme.h"

namespace voltcache::timing {

enum class StallCause : std::uint8_t { None, IFetch, Branch, Dmem, Exec };

/// Which source registers an opcode actually reads.
struct SourceUse {
    bool rs1 = false;
    bool rs2 = false;
};

[[nodiscard]] constexpr SourceUse sourcesOf(const Instruction& inst) noexcept {
    const Opcode op = inst.op;
    if (op <= Opcode::Sltu) return {true, true};                  // R-type
    if (op <= Opcode::Slti) return {true, false};                 // ALU-imm
    if (op == Opcode::Lui || op == Opcode::Ldl) return {false, false};
    if (op == Opcode::Lw) return {true, false};
    if (op == Opcode::Sw) return {true, true};
    if (isConditionalBranch(op)) return {true, true};
    if (op == Opcode::Jalr) return {true, false};
    return {false, false}; // Jal, Nop, Halt
}

namespace detail {

// Per-opcode issue-stage facts folded into one byte, so the hot loop pays a
// single table load instead of re-deriving sourcesOf/isMemory/isControlFlow
// compare chains for every dynamic instruction.
inline constexpr std::uint8_t kReadsRs1 = 1U << 0;
inline constexpr std::uint8_t kReadsRs2 = 1U << 1;
inline constexpr std::uint8_t kIsMemory = 1U << 2;
inline constexpr std::uint8_t kIsControlFlow = 1U << 3;

[[nodiscard]] constexpr std::array<std::uint8_t, kOpcodeCount> makeOpFlags() noexcept {
    std::array<std::uint8_t, kOpcodeCount> flags{};
    for (unsigned i = 0; i < kOpcodeCount; ++i) {
        const auto op = static_cast<Opcode>(i);
        const SourceUse use = sourcesOf(Instruction{op});
        std::uint8_t f = 0;
        if (use.rs1) f |= kReadsRs1;
        if (use.rs2) f |= kReadsRs2;
        if (isMemory(op)) f |= kIsMemory;
        if (isControlFlow(op)) f |= kIsControlFlow; // includes Halt
        flags[i] = f;
    }
    return flags;
}

inline constexpr std::array<std::uint8_t, kOpcodeCount> kOpFlags = makeOpFlags();

} // namespace detail

/// The pipeline's complete timing state (the Simulator's former scoreboard
/// members), hoisted into a struct so that one step can act on any run:
/// `runPipeline` keeps one in a local for a whole execution-driven run,
/// while the batched replay engine (core/replay.cpp) steps many lanes
/// through the same tape op, each carrying its own PipelineState.
///
/// The register scoreboards carry one extra scratch slot: writes to the
/// zero register are redirected there instead of branching on rd == 0, so
/// slot 0 stays permanently ready and the write path is branch-free.
struct PipelineState {
    RunStats stats;
    std::uint64_t cycle = 0;
    std::uint32_t slotsUsed = 0;
    std::uint32_t memOpsThisCycle = 0;
    std::uint32_t branchesThisCycle = 0;
    std::array<std::uint64_t, kNumRegisters + 1> regReady{};
    std::array<bool, kNumRegisters + 1> regFromLoad{};
    std::uint64_t frontendReady = 0;
    StallCause frontendCause = StallCause::None;
    bool running = true; ///< false once Halt retired
    std::uint64_t lastFetchBlock = ~std::uint64_t{0};
    std::uint64_t dportBusyUntil = 0;
    // Stall cycles indexed by StallCause (slot 0 = None is discarded), so
    // the hot advanceTo is a single indexed add instead of a branch tree.
    std::array<std::uint64_t, 5> stallCycles{};
};
// No tail padding: GCC copies a padded struct as a shorter byte block, and
// that partial copy stops it from keeping runPipeline's local state in
// registers. Keep the small fields away from the end.
static_assert(sizeof(PipelineState) ==
              offsetof(PipelineState, stallCycles) + sizeof(PipelineState::stallCycles));

/// Assemble the final RunStats from a finished run's state.
[[nodiscard]] inline RunStats finalizePipeline(const PipelineState& st) {
    RunStats stats = st.stats;
    stats.ifetchStallCycles = st.stallCycles[static_cast<unsigned>(StallCause::IFetch)];
    stats.branchStallCycles = st.stallCycles[static_cast<unsigned>(StallCause::Branch)];
    stats.dmemStallCycles = st.stallCycles[static_cast<unsigned>(StallCause::Dmem)];
    stats.execStallCycles = st.stallCycles[static_cast<unsigned>(StallCause::Exec)];
    stats.cycles = st.cycle + 1;
    stats.activity.instructions = stats.instructions;
    stats.activity.cycles = stats.cycles;
    return stats;
}

namespace detail {

/// Stall issue until `targetCycle`, charging the wait to `cause`; the new
/// cycle starts with every issue slot free.
inline void advanceTo(PipelineState& st, std::uint64_t targetCycle, StallCause cause) {
    if (targetCycle <= st.cycle) return;
    st.stallCycles[static_cast<unsigned>(cause)] += targetCycle - st.cycle;
    st.cycle = targetCycle;
    st.slotsUsed = 0;
    st.memOpsThisCycle = 0;
    st.branchesThisCycle = 0;
}

inline void setRegTiming(PipelineState& st, unsigned index, std::uint64_t readyCycle,
                         bool fromLoad) {
    const unsigned slot = index == kZeroRegister ? kNumRegisters : index;
    st.regReady[slot] = readyCycle;
    st.regFromLoad[slot] = fromLoad;
}

/// The activity counts every L1 access adds besides its own L1 count.
inline void countBeyondL1(ActivityCounts& activity, const AccessResult& res) {
    activity.l2Accesses += res.l2Reads;
    if (res.dram) ++activity.dramAccesses;
    if (res.auxProbe) ++activity.auxAccesses;
}

/// Fetch resumes at `readyCycle` after a control-flow redirect.
inline void redirectFetch(PipelineState& st, std::uint64_t readyCycle) {
    st.frontendReady = readyCycle;
    st.frontendCause = StallCause::Branch;
}

} // namespace detail

/// Issue and execute the driver's current instruction on `st`: fetch, the
/// frontend drain, register dependences, width and port limits, then the
/// execute switch, leaving the driver stepped past the instruction. The
/// caller decides when to stop: runPipeline checks `st.running` and the
/// instruction limit, and replay's tape ends where the recording stopped.
///
/// `ICache`/`DCache` are the scheme base classes or, from callers that know
/// the concrete (final) scheme types, those types — devirtualizing and, with
/// IPO, inlining every per-access call.
template <class Driver, class ICache, class DCache>
[[gnu::always_inline]] inline void issueOne(PipelineState& st, Driver& driver, ICache& icache,
                                            DCache& dcache, const PipelineConfig& config) {
    using detail::advanceTo;
    using detail::redirectFetch;
    using detail::setRegTiming;

    const Instruction& inst = driver.inst();
    const std::uint32_t pc = driver.pc();
    // Read where needed only: through the scheme base classes (execution)
    // each overhead read is a virtual call.
    const auto iHitLatency = [&icache] {
        return kL1HitLatencyCycles + icache.latencyOverhead();
    };

    // --- Instruction fetch: one I-cache access per cache-line entry. ---
    const std::uint64_t fetchBlock = pc / 32;
    if (fetchBlock != st.lastFetchBlock) {
        st.lastFetchBlock = fetchBlock;
        const AccessResult fetch = icache.fetch(pc);
        ++st.stats.activity.l1iAccesses;
        detail::countBeyondL1(st.stats.activity, fetch);
        if (!fetch.l1Hit) {
            // Miss penalty beyond the pipelined hit latency stalls fetch.
            const std::uint64_t penalty = fetch.latencyCycles - iHitLatency();
            if (st.cycle + penalty > st.frontendReady) {
                st.frontendReady = st.cycle + penalty;
                st.frontendCause = StallCause::IFetch;
            }
        }
    }
    advanceTo(st, st.frontendReady, st.frontendCause);

    const std::uint8_t opFlags = detail::kOpFlags[static_cast<unsigned>(inst.op)];

    // --- Register dependences. ---
    // Branch-free in the common no-stall case: compute both effective ready
    // cycles (0 when the source is unread), take the max, and only attribute
    // a cause on the rare path where it actually stalls. Ties attribute to
    // rs1, exactly as the sequential compare chain did.
    {
        const std::uint64_t ready1 =
            (opFlags & detail::kReadsRs1) != 0 ? st.regReady[inst.rs1] : 0;
        const std::uint64_t ready2 =
            (opFlags & detail::kReadsRs2) != 0 ? st.regReady[inst.rs2] : 0;
        const std::uint64_t ready = std::max(ready1, ready2);
        if (ready > st.cycle) [[unlikely]] {
            const bool fromLoad =
                ready1 >= ready2 ? st.regFromLoad[inst.rs1] : st.regFromLoad[inst.rs2];
            advanceTo(st, ready, fromLoad ? StallCause::Dmem : StallCause::Exec);
        }
    }

    // --- Issue-width and structural constraints. ---
    const bool isMem = (opFlags & detail::kIsMemory) != 0;
    const bool isCf = (opFlags & detail::kIsControlFlow) != 0;
    if (st.slotsUsed >= config.issueWidth || (isMem && st.memOpsThisCycle >= 1) ||
        (isCf && st.branchesThisCycle >= 1)) {
        advanceTo(st, st.cycle + 1, StallCause::None);
    }
    const std::uint32_t dOverhead = isMem ? dcache.latencyOverhead() : 0;
    if (isMem) {
        // A scheme's extra L1D cycle is *array* time (Fig. 9: the wire-delay
        // slack is gone), not a pipeline register — the single D-port can
        // then only start a new access every (1 + overhead) cycles.
        if (st.dportBusyUntil > st.cycle) {
            advanceTo(st, st.dportBusyUntil, StallCause::Dmem);
        }
        st.dportBusyUntil = st.cycle + 1 + dOverhead;
        ++st.memOpsThisCycle;
    }
    ++st.slotsUsed;
    if (isCf) ++st.branchesThisCycle;

    driver.notifyIssue();
    ++st.stats.instructions;

    // --- Execute. ---
    // Even a correctly-predicted taken transfer restarts the fetch pipeline:
    // it costs (I-cache hit latency - 1) bubble cycles, as on in-order
    // embedded cores. This is what makes every +1 cycle of L1I latency so
    // expensive in Fig. 10.
    const auto takenBubbleEnd = [&] {
        return std::max(st.frontendReady, st.cycle + iHitLatency() - 1);
    };
    // A mispredicted Jalr or conditional branch refills the pipeline, then
    // pays the I-fetch latency plus the extra drain of the deeper front end
    // (the overhead stage lengthens both refetch and flush).
    const auto refillEnd = [&] {
        return st.cycle + 1 + config.mispredictPenalty + iHitLatency() +
               icache.latencyOverhead();
    };
    switch (inst.op) {
        case Opcode::Nop: break;
        case Opcode::Halt:
            st.stats.halted = true;
            st.running = false;
            return;
        case Opcode::Lui:
            setRegTiming(st, inst.rd, st.cycle + 1, false);
            driver.writeLui();
            break;
        case Opcode::Lw:
        case Opcode::Ldl: {
            const std::uint32_t addr =
                inst.op == Opcode::Lw ? driver.loadAddr() : driver.literalAddr();
            const AccessResult res = dcache.read(addr);
            ++st.stats.loads;
            ++st.stats.activity.l1dAccesses;
            detail::countBeyondL1(st.stats.activity, res);
            setRegTiming(st, inst.rd, st.cycle + res.latencyCycles, true);
            driver.writeLoad(addr);
            if (dOverhead > 0) {
                // The pipeline is designed around the 2-cycle L1D (Table I):
                // a scheme that adds a cache cycle inserts that bubble on
                // EVERY load, dependent or not — nothing issues while the
                // lengthened MEM stage drains. This is the paper's central
                // claim that L1 latency is the critical parameter (Section
                // VI-B: ">40% performance loss ... mostly due to the 1 cycle
                // extra latency").
                advanceTo(st, st.cycle + 1 + dOverhead, StallCause::Dmem);
            }
            break;
        }
        case Opcode::Sw: {
            const std::uint32_t addr = driver.storeAddr();
            driver.doStore(addr);
            const AccessResult res = dcache.write(addr);
            ++st.stats.stores;
            ++st.stats.activity.l1dAccesses;
            st.stats.activity.l2WriteThroughs += res.l2Writes;
            detail::countBeyondL1(st.stats.activity, res);
            // Ideal write buffer: the store retires without stalling.
            break;
        }
        case Opcode::Jal: {
            const std::uint32_t target = driver.directTarget();
            const bool correct = driver.resolveJump(pc, target);
            if (inst.rd != kZeroRegister) {
                setRegTiming(st, inst.rd, st.cycle + 1, false);
                driver.writeLink();
                driver.pushReturnAddress(pc + 4);
            }
            // Direct jump with a cold BTB: the target is extracted in
            // decode — an I-fetch-latency redirect bubble.
            redirectFetch(st, correct ? takenBubbleEnd() : st.cycle + 1 + iHitLatency());
            driver.notifyControlFlow(true, target, correct);
            driver.stepJump(target);
            return;
        }
        case Opcode::Jalr: {
            const std::uint32_t target = driver.jalrTarget();
            const bool correct = driver.resolveReturn(pc, target);
            if (inst.rd != kZeroRegister) {
                setRegTiming(st, inst.rd, st.cycle + 1, false);
                driver.writeLink();
                driver.pushReturnAddress(pc + 4);
            }
            if (!correct) ++st.stats.mispredicts;
            redirectFetch(st, correct ? takenBubbleEnd() : refillEnd());
            driver.notifyControlFlow(true, target, correct);
            driver.stepJalr(target);
            return;
        }
        default: {
            if (isConditionalBranch(inst.op)) {
                const bool taken = driver.condTaken();
                const std::uint32_t target = driver.directTarget();
                const bool correct = driver.resolveBranch(pc, taken, target);
                ++st.stats.condBranches;
                if (taken) ++st.stats.takenBranches;
                if (!correct) {
                    ++st.stats.mispredicts;
                    redirectFetch(st, refillEnd());
                } else if (taken) {
                    redirectFetch(st, takenBubbleEnd());
                }
                driver.notifyControlFlow(taken, taken ? target : pc + 4, correct);
                driver.stepBranch(taken, target);
                return;
            }
            // Plain ALU op (R-type or ALU-imm).
            std::uint32_t latency = 1;
            if (inst.op == Opcode::Mul) latency = config.mulLatency;
            if (inst.op == Opcode::Div || inst.op == Opcode::Rem) latency = config.divLatency;
            setRegTiming(st, inst.rd, st.cycle + latency, false);
            driver.writeAlu();
            break;
        }
    }
    driver.stepFallthrough();
}

/// One execution-driven run: a fresh state stepped until Halt retires or
/// the instruction limit is reached, then finalized.
template <class Driver, class ICache = InstrCacheScheme, class DCache = DataCacheScheme>
RunStats runPipeline(Driver& driver, ICache& icache, DCache& dcache,
                     const PipelineConfig& config) {
    // A local whose address never escapes the inlined step: the compiler
    // keeps the hot fields in registers across the (opaque) cache-scheme
    // calls.
    PipelineState st;
    const std::uint64_t instrLimit =
        config.maxInstructions != 0 ? config.maxInstructions : ~std::uint64_t{0};
    while (st.running && st.stats.instructions < instrLimit) {
        issueOne(st, driver, icache, dcache, config);
    }
    return finalizePipeline(st);
}

} // namespace voltcache::timing
