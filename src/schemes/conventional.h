// Defect-free cache schemes: the conventional 6T cache (valid at 760mV, and
// as the paper's "unrealistic defect-free baseline" at any voltage) and the
// robust 8T cache (defect-free down to 400mV but +1 cycle and +28% area).
#pragma once

#include <cstdint>
#include <string>

#include "schemes/l1_core.h"

namespace voltcache {

/// Plain 4-way LRU write-through cache with no defects: every L1State
/// default, plus a configurable latency overhead and name.
class ConventionalPolicy : public L1State {
public:
    ConventionalPolicy(const CacheOrganization& org, L2Cache& l2,
                       std::uint32_t latencyOverhead = 0, std::string name = "conventional")
        : L1State(org, FaultMap(org.lines(), org.wordsPerBlock()), l2, org.associativity),
          latencyOverhead_(latencyOverhead),
          name_(std::move(name)) {}

protected:
    [[nodiscard]] std::uint32_t extraCycles() const noexcept { return latencyOverhead_; }
    [[nodiscard]] std::string_view label() const noexcept { return name_; }

private:
    std::uint32_t latencyOverhead_;
    std::string name_;
};

using ConventionalCache = L1Core<ConventionalPolicy>;

} // namespace voltcache
