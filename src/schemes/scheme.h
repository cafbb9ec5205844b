// Fault-tolerance scheme interfaces (paper Sections III-IV).
//
// A scheme wraps one L1 cache: it decides, per word access, whether the
// request is served by the L1 (and at what latency) or must go to the L2,
// honouring the scheme's defect-handling mechanism. The timing simulator is
// scheme-agnostic: it calls read/write/fetch and consumes AccessResults.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "cache/l2_cache.h"

namespace voltcache {

/// The schemes evaluated in the paper (Fig. 10-12 legend).
enum class SchemeKind : std::uint8_t {
    DefectFree,        ///< unrealistic defect-free baseline (paper Section V)
    Conventional760,   ///< conventional 6T pinned at Vccmin=760mV
    Robust8T,          ///< all-8T cache: no defects, +1 cycle, +28% area
    SimpleWordDisable, ///< faulty words always miss to L2 [2]
    WilkersonPlus,     ///< word-disable pairing + simple-wdis supplement [4]
    FbaPlus,           ///< fault buffer array, 1024 entries [2]
    IdcPlus,           ///< inquisitive defect cache, 1024 entries [21]
    FfwBbr,            ///< this paper: FFW data cache + BBR instruction cache
};

/// Every SchemeKind, in declaration order.
inline constexpr std::array<SchemeKind, 8> kAllSchemes = {
    SchemeKind::DefectFree, SchemeKind::Conventional760, SchemeKind::Robust8T,
    SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
    SchemeKind::IdcPlus, SchemeKind::FfwBbr};

[[nodiscard]] std::string_view schemeName(SchemeKind kind) noexcept;

/// Inverse of schemeName; throws std::runtime_error for unknown names.
[[nodiscard]] SchemeKind parseSchemeKind(std::string_view name);

/// Outcome of one L1 access, consumed by the timing simulator and the
/// activity counters.
struct AccessResult {
    std::uint32_t latencyCycles = 0; ///< request to data-available, in core cycles
    std::uint32_t l2Reads = 0;       ///< demand L2 reads triggered (Fig. 11 metric)
    std::uint32_t l2Writes = 0;      ///< write-through L2 traffic
    bool l1Hit = false;              ///< word served by the L1 (incl. aux structures)
    bool dram = false;               ///< an access went all the way to DRAM
    bool auxProbe = false;           ///< scheme side structure was probed (energy)
    bool auxHit = false;
};

/// Per-cache access statistics every scheme keeps.
struct L1Stats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t lineMisses = 0; ///< tag misses
    std::uint64_t wordMisses = 0; ///< tag hit but word unavailable (defect/window)
    std::uint64_t l2Reads = 0;

    [[nodiscard]] double missRatio() const noexcept {
        return accesses > 0
                   ? static_cast<double>(lineMisses + wordMisses) / static_cast<double>(accesses)
                   : 0.0;
    }
};

class DataCacheScheme {
public:
    virtual ~DataCacheScheme() = default;

    [[nodiscard]] virtual AccessResult read(std::uint32_t addr) = 0;
    [[nodiscard]] virtual AccessResult write(std::uint32_t addr) = 0;
    virtual void invalidateAll() = 0;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    /// Extra cycles on every L1 access versus the conventional cache
    /// (Table III "Latency overhead").
    [[nodiscard]] virtual std::uint32_t latencyOverhead() const noexcept = 0;
    [[nodiscard]] virtual const L1Stats& stats() const noexcept = 0;
};

class InstrCacheScheme {
public:
    virtual ~InstrCacheScheme() = default;

    [[nodiscard]] virtual AccessResult fetch(std::uint32_t addr) = 0;
    virtual void invalidateAll() = 0;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    [[nodiscard]] virtual std::uint32_t latencyOverhead() const noexcept = 0;
    [[nodiscard]] virtual const L1Stats& stats() const noexcept = 0;
};

/// Baseline L1 hit latency (Table I: 2 cycles for both L1s).
inline constexpr std::uint32_t kL1HitLatencyCycles = 2;

} // namespace voltcache
