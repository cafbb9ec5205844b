// Fault-free window data cache (paper Section IV-A, Figs. 4-5).
//
// Each physical frame knows its defective words (FMAP) and which logical
// words it currently holds (StoredPattern). A frame with k fault-free word
// entries stores a *window* of k contiguous logical words of the block,
// scattered into the fault-free entries in order. On an access:
//
//   tag hit, word inside window  -> L1 hit at the baseline 2-cycle latency
//                                   (remap logic is off the critical path,
//                                   Fig. 9) — zero latency overhead;
//   tag hit, word outside window -> "word miss": read from L2, then recenter
//                                   the window on the missed word (the
//                                   missing word stands in the middle,
//                                   Fig. 5) — update is on the miss path;
//   tag miss                     -> normal fill; the new window is chosen by
//                                   FillPolicy (see below).
//
// The cache is write-through with no-write-allocate, which is what makes
// dropping non-window words safe.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "schemes/l1_core.h"

namespace voltcache {

struct FfwConfig {
    /// Window placement on a line fill.
    enum class FillPolicy : std::uint8_t {
        /// Center the window on the word that caused the fill (the fill
        /// brings the whole block past the cache, so this is free).
        CenterOnMiss,
        /// The paper's Fig. 5 illustration: the first k contiguous words.
        /// If the requested word falls outside, the very next read of it
        /// word-misses and recenters.
        FirstK,
    };
    FillPolicy fillPolicy = FillPolicy::CenterOnMiss;
    /// Recenter the window when a word miss occurs (the paper's mechanism).
    /// Disable for the "static window" ablation.
    bool recenterOnWordMiss = true;
};

class FfwPolicy : public L1State {
public:
    FfwPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2,
              FfwConfig config = {});

    /// The current window of a frame: [start, start+length) logical words.
    struct Window {
        std::uint32_t start = 0;
        std::uint32_t length = 0;
        [[nodiscard]] bool contains(std::uint32_t word) const noexcept {
            return word >= start && word < start + length;
        }
    };
    [[nodiscard]] Window windowOf(std::uint32_t set, std::uint32_t way) const;

    /// StoredPattern bitmask (bit i == logical word i present), as held by
    /// the StoredPattern array in Fig. 4.
    [[nodiscard]] std::uint32_t storedPattern(std::uint32_t set, std::uint32_t way) const;

    /// The word-remap computation of Fig. 4: physical word entry holding a
    /// logical word (which must be inside the window). This models the
    /// "word remapping logic" output fed to the data array's column MUX.
    [[nodiscard]] std::uint32_t physicalEntryFor(std::uint32_t set, std::uint32_t way,
                                                 std::uint32_t logicalWord) const;

    [[nodiscard]] const FfwConfig& config() const noexcept { return config_; }

    /// Forensics: histogram of recenter distances (how many words the window
    /// start moved per recenter, 0..7), accumulated over the leg's run.
    [[nodiscard]] const std::array<std::uint64_t, 8>& recenterDistances() const noexcept {
        return recenterDist_;
    }

protected:
    /// FMAP + StoredPattern are read in parallel with the tags.
    static constexpr bool kProbesEveryAccess = true;
    [[nodiscard]] std::string_view label() const noexcept { return "ffw"; }
    [[nodiscard]] bool holdsWord(std::uint32_t set, std::uint32_t way, std::uint32_t word) const {
        const LineState& state = lineState_[frameOf(set, way)];
        return word >= state.windowStart &&
               word < static_cast<std::uint32_t>(state.windowStart) + state.windowLength;
    }
    /// The missing word was forwarded to the CPU; the window recenters on
    /// it off the critical path.
    void onWordMiss(std::uint32_t set, std::uint32_t way, std::uint32_t word,
                    std::uint32_t addr);
    void fill(std::uint32_t addr, std::uint32_t set, std::uint32_t tag, std::uint32_t word,
              AccessResult& result);

private:
    struct LineState {
        std::uint8_t windowStart = 0;
        std::uint8_t windowLength = 0;
    };

    [[nodiscard]] Window recentered(std::uint32_t frame, std::uint32_t missedWord) const;
    void setWindow(std::uint32_t frame, Window window);

    FfwConfig config_;
    std::vector<LineState> lineState_;    ///< per physical frame
    std::vector<std::uint8_t> freeCount_;      ///< fault-free entries per frame
    std::vector<std::uint32_t> usableWayMask_; ///< per set: ways with >=1 entry
    obs::Counter recenters_; ///< process-wide "ffw.recenters" counter
    std::array<std::uint64_t, 8> recenterDist_{}; ///< window-start move distances
};

using FfwDCache = L1Core<FfwPolicy>;

} // namespace voltcache
