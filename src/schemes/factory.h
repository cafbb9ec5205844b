// Assembles the (data-cache, instruction-cache) scheme pair evaluated under
// each Fig. 10-12 legend entry.
#pragma once

#include <memory>
#include <utility>

#include "faults/fault_map.h"
#include "schemes/bbr.h"
#include "schemes/conventional.h"
#include "schemes/fault_buffer.h"
#include "schemes/ffw.h"
#include "schemes/scheme.h"
#include "schemes/wilkerson.h"
#include "schemes/word_disable.h"

namespace voltcache {

struct SchemePair {
    std::unique_ptr<DataCacheScheme> dcache;
    std::unique_ptr<InstrCacheScheme> icache;
    /// Combined Table III static-power multiplier for the two L1s.
    double l1StaticFactor = 1.0;
    /// Per-access L1 dynamic-energy multiplier: larger arrays (8T: +30%
    /// cells) and wider read paths (FMAP/StoredPattern, buffer probes)
    /// cost proportionally more per access.
    double l1DynamicFactor = 1.0;
    /// True when the binary must be BBR-linked against the I-cache fault map.
    bool needsBbrLinking = false;
};

/// Build the scheme pair for one experiment leg. The fault maps must match
/// the organization (lines x wordsPerBlock); defect-free kinds ignore them.
/// FBA+/IDC+ receive the paper's optimistic 1024 entries.
[[nodiscard]] SchemePair makeSchemes(SchemeKind kind, const CacheOrganization& org,
                                     const FaultMap& dcacheMap, const FaultMap& icacheMap,
                                     L2Cache& l2);

/// Whether `kind` runs the BBR-transformed twin linked against the trial's
/// I-cache fault map (same answer as SchemePair::needsBbrLinking, without
/// building the schemes). Sweep planning uses this to pick the recorded
/// trace a leg replays from.
[[nodiscard]] constexpr bool schemeNeedsBbrLinking(SchemeKind kind) noexcept {
    return kind == SchemeKind::FfwBbr;
}

namespace detail {

template <class ICache, class DCache = ICache, class Fn>
decltype(auto) withCaches(const SchemePair& pair, Fn&& fn) {
    return std::forward<Fn>(fn)(static_cast<ICache&>(*pair.icache),
                                static_cast<DCache&>(*pair.dcache));
}

} // namespace detail

/// Invoke `fn(concreteICache&, concreteDCache&)` with the pair downcast to
/// the L1Core instantiations `makeSchemes(kind, ...)` constructed. This is
/// how the batched replay engine devirtualizes — and, with IPO, inlines —
/// every per-access scheme call inside the timing kernel: one kernel
/// instantiation per concrete pair, selected once per chunk instead of a
/// virtual dispatch per access.
template <class Fn>
decltype(auto) withConcreteSchemes(SchemeKind kind, const SchemePair& pair, Fn&& fn) {
    switch (kind) {
        case SchemeKind::DefectFree:
        case SchemeKind::Conventional760:
        case SchemeKind::Robust8T:
            return detail::withCaches<ConventionalCache>(pair, std::forward<Fn>(fn));
        case SchemeKind::SimpleWordDisable:
            return detail::withCaches<SimpleWordDisableCache>(pair, std::forward<Fn>(fn));
        case SchemeKind::WilkersonPlus:
            return detail::withCaches<WilkersonCache>(pair, std::forward<Fn>(fn));
        case SchemeKind::FbaPlus:
        case SchemeKind::IdcPlus:
            return detail::withCaches<FaultBufferCache>(pair, std::forward<Fn>(fn));
        case SchemeKind::FfwBbr:
            return detail::withCaches<BbrICache, FfwDCache>(pair, std::forward<Fn>(fn));
    }
    __builtin_unreachable();
}

} // namespace voltcache
