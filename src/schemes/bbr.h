// Basic block relocation instruction cache (paper Section IV-B, Fig. 7).
//
// At high voltage the cache runs 4-way set-associative. When the processor
// drops into low-voltage mode, all contents are invalidated and the cache
// switches to direct-mapped (DAC-style [27]: the least significant tag bits
// select the way), which gives the linker exact control of where every
// instruction lands. A BBR-linked binary never places a word on a defective
// cache word, so the fetch path needs no fault handling at all — and
// this cache enforces that invariant and throws PlacementViolation if a
// fetch ever touches a defective word (it would indicate a linker bug).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "schemes/l1_core.h"

namespace voltcache {

/// A fetch touched a defective I-cache word in direct-mapped mode — the
/// binary was not (correctly) linked for this fault map.
class PlacementViolation : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

class BbrPolicy : public L1State {
public:
    enum class Mode : std::uint8_t { SetAssociative, DirectMapped };

    BbrPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2,
              Mode mode = Mode::DirectMapped);

    /// Mode switch invalidates all contents (paper Section IV-B2). In a run
    /// the mode is fixed for the whole low-voltage episode, so the switch
    /// cost is negligible.
    void switchMode(Mode mode);
    [[nodiscard]] Mode mode() const noexcept { return mode_; }

protected:
    [[nodiscard]] std::string_view label() const noexcept { return "bbr"; }
    TagArray::Lookup findWay(std::uint32_t addr, std::uint32_t set, std::uint32_t tag) {
        // High-voltage mode: no defects exist; plain 4-way LRU operation.
        if (mode_ == Mode::SetAssociative) return L1State::findWay(addr, set, tag);
        // Direct-mapped mode: the way comes from the low tag bits (Fig. 7),
        // so each memory word maps to exactly one cache word — the
        // invariant BBR's link-time placement relies on.
        const std::uint32_t way = mapper_.directWay(addr);
        if (faulty(set, way, mapper_.wordOffset(addr))) throwPlacementViolation(addr, set, way);
        return {tags_.probeWay(set, way, tag), way};
    }
    void fill(std::uint32_t addr, std::uint32_t set, std::uint32_t tag, std::uint32_t word,
              AccessResult& result);

private:
    [[noreturn]] void throwPlacementViolation(std::uint32_t addr, std::uint32_t set,
                                              std::uint32_t way) const;

    Mode mode_;
    obs::Counter fetchMisses_; ///< process-wide "bbr.fetch_misses" counter
};

using BbrICache = L1Core<BbrPolicy>;

} // namespace voltcache
