// Two-wide in-order timing simulator (paper Table I: gem5 "arm-detailed"
// 2-way superscalar, modelling an ARM Cortex-A9-class embedded core).
//
// The model executes the program functionally, instruction by instruction,
// while tracking cycle time with a scoreboard:
//   * up to 2 instructions issue per cycle, at most 1 memory op and 1
//     control-flow op per cycle;
//   * register dependences stall issue until the producer's latency elapses
//     (ALU 1, MUL 3, DIV 12, loads = L1 latency or miss latency);
//   * instruction fetch is pipelined within a cache line; crossing into a
//     new line costs an I-cache access whose miss latency stalls the front
//     end; taken control flow redirects fetch (free on a correct BTB/RAS
//     hit, an I-cache-latency bubble on a BTB miss, full pipeline refill
//     plus I-cache latency on a mispredict);
//   * stores drain through an ideal write buffer (write-through traffic is
//     counted but does not stall).
//
// Stalled cycles are attributed to I-fetch, D-memory, branch, or execution
// components, giving the runtime decomposition of Fig. 10 (method of [35]).
#pragma once

#include <array>
#include <cstdint>

#include "cpu/branch_predictor.h"
#include "cpu/memory.h"
#include "isa/instruction.h"
#include "isa/module.h"
#include "linker/image.h"
#include "power/energy_model.h"
#include "schemes/scheme.h"

namespace voltcache {

struct PipelineConfig {
    std::uint32_t issueWidth = 2;
    std::uint32_t mispredictPenalty = 5; ///< refill cycles beyond the I-fetch latency
    std::uint32_t mulLatency = 3;
    std::uint32_t divLatency = 12;
    std::uint64_t maxInstructions = 0; ///< 0 = run to Halt
    BranchPredictor::Config predictor = {};
};

/// Cycle decomposition + event counts of one run.
struct RunStats {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    bool halted = false; ///< false = stopped at maxInstructions

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t mispredicts = 0;

    // Runtime components (cycles), per the measurement approach of [35].
    std::uint64_t ifetchStallCycles = 0;
    std::uint64_t dmemStallCycles = 0;
    std::uint64_t branchStallCycles = 0;
    std::uint64_t execStallCycles = 0;

    ActivityCounts activity; ///< energy-model event counts

    [[nodiscard]] double ipc() const noexcept {
        return cycles > 0 ? static_cast<double>(instructions) / static_cast<double>(cycles)
                          : 0.0;
    }
    [[nodiscard]] std::uint64_t busyCycles() const noexcept {
        const std::uint64_t stalls =
            ifetchStallCycles + dmemStallCycles + branchStallCycles + execStallCycles;
        return cycles > stalls ? cycles - stalls : 0;
    }
    /// L2 accesses per 1000 instructions — the Fig. 11 metric (demand reads
    /// only; write-through traffic is accounted separately).
    [[nodiscard]] double l2AccessesPerKilo() const noexcept {
        return instructions > 0 ? 1000.0 * static_cast<double>(activity.l2Accesses) /
                                      static_cast<double>(instructions)
                                : 0.0;
    }
};

/// Hook for workload analyses (Fig. 3 locality profiling, Fig. 6 working
/// sets). Callbacks fire in program order.
class TraceObserver {
public:
    virtual ~TraceObserver() = default;
    virtual void onInstruction(std::uint32_t pc, const Instruction& inst) {
        (void)pc;
        (void)inst;
    }
    virtual void onDataAccess(std::uint32_t addr, bool isWrite) {
        (void)addr;
        (void)isWrite;
    }
    /// Fires once per retired control-flow instruction (Jal/Jalr/conditional
    /// branch), after the predictor resolved it. `nextPc` is the actual
    /// successor (fall-through for a not-taken branch); `predictedCorrect`
    /// is the predictor's verdict. The TraceRecorder (cpu/arch_trace.h)
    /// lives on this hook.
    virtual void onControlFlow(std::uint32_t pc, const Instruction& inst, bool taken,
                               std::uint32_t nextPc, bool predictedCorrect) {
        (void)pc;
        (void)inst;
        (void)taken;
        (void)nextPc;
        (void)predictedCorrect;
    }
};

class Simulator {
public:
    /// The image provides code and initial memory contents; `extraData`
    /// segments (from Module::data) are loaded on top.
    Simulator(const Image& image, const std::vector<DataSegment>& data,
              InstrCacheScheme& icache, DataCacheScheme& dcache, PipelineConfig config = {});

    /// Replace all attached observers with this one (legacy single-observer
    /// API; nullptr detaches everything).
    void setObserver(TraceObserver* observer) {
        observers_.clear();
        if (observer != nullptr) observers_.push_back(observer);
    }

    /// Attach an additional observer; observers fire in attach order, so a
    /// LocalityProfiler and a TimelineObserver can watch the same run.
    void addObserver(TraceObserver* observer) {
        if (observer != nullptr) observers_.push_back(observer);
    }

    /// Run from the image entry point until Halt (or maxInstructions).
    RunStats run();

    [[nodiscard]] const Memory& memory() const noexcept { return memory_; }
    [[nodiscard]] std::int32_t reg(unsigned index) const;
    [[nodiscard]] const BranchPredictor& predictor() const noexcept { return predictor_; }

private:
    // The timing model itself lives in cpu/timing_kernel.h (shared with the
    // trace-replay engine); ExecDriver supplies the functional half.
    friend class ExecDriver;

    const Image* image_;
    InstrCacheScheme* icache_;
    DataCacheScheme* dcache_;
    PipelineConfig config_;
    BranchPredictor predictor_;
    Memory memory_;
    std::vector<TraceObserver*> observers_;

    // Architectural state.
    std::array<std::int32_t, kNumRegisters> regs_{};
    std::uint32_t pc_ = 0;

    RunStats stats_;
};

} // namespace voltcache
