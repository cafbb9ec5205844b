#include "cpu/timeline_observer.h"

#include "common/contracts.h"
#include "obs/trace.h"

namespace voltcache {

TimelineObserver::TimelineObserver(std::uint64_t sampleEvery) : sampleEvery_(sampleEvery) {
    VC_EXPECTS(sampleEvery > 0);
}

void TimelineObserver::onInstruction(std::uint32_t pc, const Instruction& inst) {
    (void)inst;
    ++instructions_;
    if (instructions_ % sampleEvery_ != 0) return;
    obs::traceInstant("cpu.inst", "cpu",
                      {{"pc", pc}, {"n", static_cast<std::int64_t>(instructions_)}});
}

void TimelineObserver::onDataAccess(std::uint32_t addr, bool isWrite) {
    ++accesses_;
    if (accesses_ % sampleEvery_ != 0) return;
    obs::traceInstant("cpu.data", "cpu", {{"addr", addr}, {"write", isWrite ? 1 : 0}});
}

} // namespace voltcache
