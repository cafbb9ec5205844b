// Per-leg forensic distributions for the sweep's post-mortem report.
//
// Each Monte Carlo leg harvests a handful of small integer histograms that
// explain *why* a scheme behaved the way it did at a voltage point: how
// large the FFW fault-free windows were and how far recentering had to move
// them, how long the BBR fault-free chunks were and how far first-fit
// placement displaced each block, and — for legs that failed to link — which
// cause ate the yield. Everything here is deterministic integer counting
// derived from the leg's fault maps and link stats, so accumulating it into
// the sweep JSON cannot perturb byte-for-byte reproducibility across thread
// counts.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "linker/linker.h"

namespace voltcache {

/// Log2 bucketing shared by the chunk-length and displacement histograms:
/// bucket 0 = value 0, bucket k = values with bit width k, last bucket
/// absorbs everything >= 2^15.
inline constexpr std::size_t kForensicsLog2Buckets = 17;

[[nodiscard]] inline std::size_t forensicsLog2Bucket(std::uint64_t value) noexcept {
    if (value == 0) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(value));
    return width < kForensicsLog2Buckets ? width : kForensicsLog2Buckets - 1;
}

/// Lower bound of a log2 bucket, for labelling exported histograms.
[[nodiscard]] inline std::uint64_t forensicsLog2BucketLow(std::size_t bucket) noexcept {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

/// What one leg contributes to the forensic report. Filled by
/// detail::finalizeLegResult for both fresh-execute and replay legs (the
/// shared path is what keeps the two modes byte-identical).
struct LegForensics {
    // FFW D-cache: distribution of fault-free window sizes across lines
    // (0..8 words per 8-word line) and of recenter distances (how many
    // words the window start moved, 0..7).
    std::array<std::uint64_t, 9> ffwWindowSize{};
    std::array<std::uint64_t, 8> ffwRecenterDistance{};
    std::uint64_t ffwRecenters = 0;

    // BBR I-cache: log2 distributions of fault-free chunk lengths (from the
    // fault map) and of first-fit placement displacement per block (from the
    // linker), plus the block count for normalization.
    std::array<std::uint64_t, kForensicsLog2Buckets> bbrChunkWords{};
    std::array<std::uint64_t, kForensicsLog2Buckets> bbrDisplacement{};
    std::uint64_t bbrBlocksPlaced = 0;

    bool hasFfw = false; ///< leg ran an FFW D-cache (ffw* fields meaningful)
    bool hasBbr = false; ///< leg used BBR placement (bbr* fields meaningful)
    LinkFailCause failCause = LinkFailCause::None; ///< set when the leg yield-lost

    bool operator==(const LegForensics&) const = default;
};

/// Aggregate over all trials of one (scheme, voltage point) cell.
struct CellForensics {
    std::uint64_t legs = 0;    ///< legs accumulated (including failed links)
    std::uint64_t ffwLegs = 0; ///< legs with hasFfw
    std::uint64_t bbrLegs = 0; ///< legs with hasBbr

    std::array<std::uint64_t, 9> ffwWindowSize{};
    std::array<std::uint64_t, 8> ffwRecenterDistance{};
    std::uint64_t ffwRecenters = 0;

    std::array<std::uint64_t, kForensicsLog2Buckets> bbrChunkWords{};
    std::array<std::uint64_t, kForensicsLog2Buckets> bbrDisplacement{};
    std::uint64_t bbrBlocksPlaced = 0;

    /// Yield-loss cause breakdown, indexed by LinkFailCause (index 0 ==
    /// None counts successful legs and stays out of the export).
    std::array<std::uint64_t, 7> yieldLoss{};
};

inline void accumulate(CellForensics& cell, const LegForensics& leg) {
    ++cell.legs;
    if (leg.hasFfw) {
        ++cell.ffwLegs;
        for (std::size_t i = 0; i < leg.ffwWindowSize.size(); ++i) {
            cell.ffwWindowSize[i] += leg.ffwWindowSize[i];
        }
        for (std::size_t i = 0; i < leg.ffwRecenterDistance.size(); ++i) {
            cell.ffwRecenterDistance[i] += leg.ffwRecenterDistance[i];
        }
        cell.ffwRecenters += leg.ffwRecenters;
    }
    if (leg.hasBbr) {
        ++cell.bbrLegs;
        for (std::size_t i = 0; i < kForensicsLog2Buckets; ++i) {
            cell.bbrChunkWords[i] += leg.bbrChunkWords[i];
            cell.bbrDisplacement[i] += leg.bbrDisplacement[i];
        }
        cell.bbrBlocksPlaced += leg.bbrBlocksPlaced;
    }
    const auto cause = static_cast<std::size_t>(leg.failCause);
    if (cause < cell.yieldLoss.size()) ++cell.yieldLoss[cause];
}

} // namespace voltcache
