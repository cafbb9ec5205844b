// The sweep progress snapshot: one struct shared by the executor that fills
// it (core/sweep.h names it SweepProgress) and every observer that reads it
// (the /progress board, the flight recorder, the serve protocol). It lives in
// obs/ because that is the lowest layer that needs it — obs must not depend
// on core.
#pragma once

#include <cstddef>
#include <string>

namespace voltcache::obs {

/// One progress tick of a sweep. Boundary ticks fire when a benchmark's legs
/// all finished; non-boundary ticks fire on leg completion, throttled to
/// ~5 Hz, so even a single-benchmark sweep reports while it runs. Ticks fire
/// in completion order (scheduling-dependent); the sweep result itself is
/// deterministic regardless.
struct SweepProgress {
    std::size_t benchmarksCompleted = 0; ///< benchmarks finished so far
    std::size_t benchmarksTotal = 0;     ///< benchmarks in this sweep
    std::string benchmark;         ///< boundary ticks: the one that just finished
    bool boundary = true;          ///< false = time-throttled leg tick
    std::size_t legsCompleted = 0; ///< legs finished so far, sweep-wide
    std::size_t legsTotal = 0;     ///< legs in this sweep
    std::size_t legsReplayed = 0;  ///< legs served by the trace-replay fast path
    std::size_t legsExecuted = 0;  ///< legs that ran execution-driven
    std::size_t legsCached = 0;    ///< legs served from the result store (no sim)
    unsigned workers = 0;          ///< worker threads executing legs
};

} // namespace voltcache::obs
