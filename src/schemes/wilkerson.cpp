#include "schemes/wilkerson.h"

#include <bit>

#include "common/contracts.h"

namespace voltcache {

WilkersonPairing::WilkersonPairing(const CacheOrganization& org, const FaultMap& map)
    : logicalWays_(org.associativity / 2) {
    VC_EXPECTS(org.associativity % 2 == 0);
    const AddressMapper mapper(org);
    unrepairableMask_.reserve(static_cast<std::size_t>(org.sets()) * logicalWays_);
    for (std::uint32_t set = 0; set < org.sets(); ++set) {
        for (std::uint32_t lway = 0; lway < logicalWays_; ++lway) {
            const std::uint32_t both = map.lineFaultMask(mapper.physicalLine(set, 2 * lway)) &
                                       map.lineFaultMask(mapper.physicalLine(set, 2 * lway + 1));
            unrepairableMask_.push_back(both);
            unrepairable_ += static_cast<std::uint32_t>(std::popcount(both));
        }
    }
}

} // namespace voltcache
