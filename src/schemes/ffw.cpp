#include "schemes/ffw.h"

#include <algorithm>

#include "common/contracts.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace voltcache {

FfwPolicy::FfwPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2,
                     FfwConfig config)
    : L1State(org, std::move(faultMap), l2, org.associativity),
      config_(config),
      recenters_(obs::MetricsRegistry::global().counter("ffw.recenters")) {
    lineState_.assign(org.lines(), LineState{});
    freeCount_.assign(org.lines(), 0);
    usableWayMask_.assign(org.sets(), 0);
    for (std::uint32_t set = 0; set < org.sets(); ++set) {
        for (std::uint32_t way = 0; way < org.associativity; ++way) {
            const std::uint32_t frame = mapper_.physicalLine(set, way);
            const auto free = static_cast<std::uint8_t>(faultMap_.faultFreeCount(frame));
            freeCount_[frame] = free;
            // A frame with zero usable entries can hold nothing: it is
            // excluded from allocation for the whole low-voltage episode.
            if (free > 0) usableWayMask_[set] |= (1u << way);
        }
    }
}

FfwPolicy::Window FfwPolicy::recentered(std::uint32_t frame, std::uint32_t missedWord) const {
    const std::uint32_t k = freeCount_[frame];
    const std::uint32_t wordsPerBlock = mapper_.wordsPerBlock();
    VC_EXPECTS(k >= 1 && k <= wordsPerBlock);
    // The missing word stands in the middle of the new window (Fig. 5),
    // clamped so the window stays inside the block.
    const std::uint32_t half = (k - 1) / 2;
    std::uint32_t start = missedWord > half ? missedWord - half : 0;
    start = std::min(start, wordsPerBlock - k);
    return Window{start, k};
}

void FfwPolicy::setWindow(std::uint32_t frame, Window window) {
    lineState_[frame].windowStart = static_cast<std::uint8_t>(window.start);
    lineState_[frame].windowLength = static_cast<std::uint8_t>(window.length);
}

FfwPolicy::Window FfwPolicy::windowOf(std::uint32_t set, std::uint32_t way) const {
    const LineState& state = lineState_[frameOf(set, way)];
    return Window{state.windowStart, state.windowLength};
}

std::uint32_t FfwPolicy::storedPattern(std::uint32_t set, std::uint32_t way) const {
    const auto window = windowOf(set, way);
    if (window.length == 0) return 0;
    return ((1u << window.length) - 1u) << window.start;
}

std::uint32_t FfwPolicy::physicalEntryFor(std::uint32_t set, std::uint32_t way,
                                          std::uint32_t logicalWord) const {
    const auto window = windowOf(set, way);
    VC_EXPECTS(window.contains(logicalWord));
    const std::uint32_t frame = frameOf(set, way);
    // The logical word's rank inside the window selects the rank-th
    // fault-free entry of the frame (Fig. 4's remap example).
    std::uint32_t rank = logicalWord - window.start;
    for (std::uint32_t entry = 0; entry < mapper_.wordsPerBlock(); ++entry) {
        if (faultMap_.isFaulty(frame, entry)) continue;
        if (rank == 0) return entry;
        --rank;
    }
    VC_ENSURES(false); // window.length <= freeCount guarantees we return above
    return 0;
}

void FfwPolicy::onWordMiss(std::uint32_t set, std::uint32_t way, std::uint32_t word,
                           std::uint32_t /*addr*/) {
    if (!config_.recenterOnWordMiss) return;
    const std::uint32_t frame = frameOf(set, way);
    const LineState& state = lineState_[frame];
    const Window next = recentered(frame, word);
    if (obs::instantEventsOn()) {
        obs::traceInstant("ffw.recenter", "dcache",
                          {{"set", set},
                           {"way", way},
                           {"word", word},
                           {"old_start", state.windowStart},
                           {"old_len", state.windowLength},
                           {"new_start", next.start},
                           {"new_len", next.length}});
    }
    recenters_.add();
    const std::uint32_t oldStart = state.windowStart;
    const std::uint32_t dist = std::max(oldStart, next.start) - std::min(oldStart, next.start);
    ++recenterDist_[std::min<std::size_t>(dist, recenterDist_.size() - 1)];
    setWindow(frame, next);
}

void FfwPolicy::fill(std::uint32_t /*addr*/, std::uint32_t set, std::uint32_t tag,
                     std::uint32_t word, AccessResult& /*result*/) {
    if (usableWayMask_[set] == 0) {
        // Every frame in the set is fully defective: serve from L2 without
        // allocating (the set is effectively disabled).
        return;
    }
    const auto fill = tags_.fill(set, tag, usableWayMask_[set]);
    const std::uint32_t frame = frameOf(set, fill.way);
    switch (config_.fillPolicy) {
        case FfwConfig::FillPolicy::CenterOnMiss:
            setWindow(frame, recentered(frame, word));
            break;
        case FfwConfig::FillPolicy::FirstK:
            setWindow(frame, Window{0, freeCount_[frame]});
            break;
    }
}

} // namespace voltcache
