// Simple word disable (paper Section III-B, from Mahmood & Kim [2]).
//
// Each word carries a defect mark loaded from the BIST fault map. A tag hit
// on a defective word is NOT a hit: the access is handled like a normal
// cache miss (served by the L2 every time — the word can never be cached).
// Fault-free words of a partially-defective line remain fully usable, so
// capacity degrades gracefully. Zero latency overhead (Table III), but L2
// traffic explodes once nearly every line is defective (Fig. 10 after
// 480mV).
#pragma once

#include <cstdint>

#include "schemes/l1_core.h"

namespace voltcache {

class SimpleWordDisablePolicy : public L1State {
public:
    SimpleWordDisablePolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2)
        : L1State(org, std::move(faultMap), l2, org.associativity) {}

protected:
    [[nodiscard]] std::string_view label() const noexcept { return "simple-wdis"; }
    [[nodiscard]] bool holdsWord(std::uint32_t set, std::uint32_t way, std::uint32_t word) const {
        return !faulty(set, way, word);
    }
};

using SimpleWordDisableCache = L1Core<SimpleWordDisablePolicy>;

} // namespace voltcache
