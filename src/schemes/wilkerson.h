// Wilkerson-style word disable (paper Section III-B, from [4]).
//
// Two consecutive physical ways combine into one logical line: a logical
// word is served from whichever pair member has that word fault-free.
// Capacity halves (4-way -> 2 logical ways) and the combining mux adds one
// cycle (Table III). A word position defective in BOTH pair members is
// unrepairable — plain word disable cannot ship such a die, which is why
// the paper says it "cannot achieve 99.9% chip yield below 480mV". The
// evaluated Wilkerson+ variant applies simple word disable as a
// supplementary technique: unrepairable words always miss to the L2.
#pragma once

#include <cstdint>
#include <vector>

#include "schemes/l1_core.h"

namespace voltcache {

/// Which words of each logical line are unrepairable, computed once from
/// the fault map (the pairing keeps no reference to it).
class WilkersonPairing {
public:
    WilkersonPairing(const CacheOrganization& org, const FaultMap& map);

    [[nodiscard]] std::uint32_t logicalWays() const noexcept { return logicalWays_; }

    /// True if `word` of logical way `lway` in `set` is defective in both
    /// pair members (served like simple word disable).
    [[nodiscard]] bool unrepairable(std::uint32_t set, std::uint32_t lway,
                                    std::uint32_t word) const {
        return (unrepairableMask_[set * logicalWays_ + lway] >> word) & 1u;
    }

    /// Count of unrepairable word positions across the whole cache — the
    /// quantity that kills plain word-disable yield at low voltage.
    [[nodiscard]] std::uint32_t unrepairableCount() const noexcept { return unrepairable_; }

private:
    std::uint32_t logicalWays_;
    std::vector<std::uint32_t> unrepairableMask_; ///< per (set, logical way)
    std::uint32_t unrepairable_ = 0;
};

class WilkersonPolicy : public L1State {
public:
    WilkersonPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2)
        : L1State(org, std::move(faultMap), l2, org.associativity / 2),
          pairing_(org, faultMap_) {}

    [[nodiscard]] const WilkersonPairing& pairing() const noexcept { return pairing_; }

protected:
    [[nodiscard]] std::uint32_t extraCycles() const noexcept { return 1; }
    [[nodiscard]] std::string_view label() const noexcept { return "wilkerson+"; }
    /// Tag ways are logical ways; a fill takes both frames of the pair.
    [[nodiscard]] bool holdsWord(std::uint32_t set, std::uint32_t lway, std::uint32_t word) const {
        return !pairing_.unrepairable(set, lway, word);
    }

private:
    WilkersonPairing pairing_;
};

using WilkersonCache = L1Core<WilkersonPolicy>;

} // namespace voltcache
