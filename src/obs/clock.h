// The one steady clock. Span, LegEvent::startNs, the job timeline's epoch,
// the metrics snapshot stamp, the progress board, the leg journal and the
// flight recorder all stamp with steadyNowNs(), so their stamps compare on
// one axis.
#pragma once

#include <chrono>
#include <cstdint>

namespace voltcache::obs {

/// steady_clock since-epoch nanoseconds. Async-signal-safe (clock_gettime).
[[nodiscard]] inline std::uint64_t steadyNowNs() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace voltcache::obs
