// Bridges the simulator's TraceObserver hook into the current job's timeline.
#pragma once

#include <cstdint>

#include "cpu/simulator.h"

namespace voltcache {

/// Records sampled instruction / data-access instant events into the
/// current job's timeline (obs/trace.h) so program activity shows up on the
/// Perfetto timeline alongside the scheme, fault-buffer, and linker events.
/// Sampling (1-in-N) keeps a long run from flushing those rarer events out
/// of the bounded ring.
class TimelineObserver final : public TraceObserver {
public:
    explicit TimelineObserver(std::uint64_t sampleEvery = 256);

    void onInstruction(std::uint32_t pc, const Instruction& inst) override;
    void onDataAccess(std::uint32_t addr, bool isWrite) override;

    [[nodiscard]] std::uint64_t instructions() const noexcept { return instructions_; }
    [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

private:
    std::uint64_t sampleEvery_;
    std::uint64_t instructions_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace voltcache
