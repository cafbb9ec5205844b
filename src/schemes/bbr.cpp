#include "schemes/bbr.h"

#include <string>

#include "common/contracts.h"
#include "obs/trace.h"

namespace voltcache {

BbrPolicy::BbrPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2, Mode mode)
    : L1State(org, std::move(faultMap), l2, org.associativity),
      mode_(mode),
      fetchMisses_(obs::MetricsRegistry::global().counter("bbr.fetch_misses")) {}

void BbrPolicy::throwPlacementViolation(std::uint32_t addr, std::uint32_t set,
                                        std::uint32_t way) const {
    throw PlacementViolation(
        "BBR: fetch of address " + std::to_string(addr) +
        " touches a defective I-cache word (line " +
        std::to_string(frameOf(set, way)) + ", word " +
        std::to_string(mapper_.wordOffset(addr)) +
        ") — the image was not placed against this fault map; "
        "analysis::provePlacement / tools/vcverify catches this statically");
}

void BbrPolicy::fill(std::uint32_t addr, std::uint32_t set, std::uint32_t tag,
                     std::uint32_t /*word*/, AccessResult& /*result*/) {
    fetchMisses_.add();
    if (mode_ == Mode::SetAssociative) {
        if (obs::instantEventsOn()) {
            obs::traceInstant("bbr.fetch_miss", "icache",
                              {{"addr", addr}, {"set", set}, {"dm", 0}});
        }
        tags_.fill(set, tag);
        return;
    }
    const std::uint32_t way = mapper_.directWay(addr);
    if (obs::instantEventsOn()) {
        obs::traceInstant("bbr.fetch_miss", "icache",
                          {{"addr", addr}, {"set", set}, {"way", way}, {"dm", 1}});
    }
    tags_.fillAt(set, way, tag);
}

void BbrPolicy::switchMode(Mode mode) {
    if (mode == mode_) return;
    mode_ = mode;
    if (obs::instantEventsOn()) {
        obs::traceInstant("bbr.mode_switch", "icache",
                          {{"dm", mode_ == Mode::DirectMapped ? 1 : 0}});
    }
    tags_.invalidateAll();
}

} // namespace voltcache
