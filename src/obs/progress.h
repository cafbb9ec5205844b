// The sweep's observation vocabulary: the progress snapshot and the leg
// lifecycle event. The executor fills both (core/sweep.h), and every observer
// reads them as is: the /progress board, the NDJSON leg journal, the flight
// recorder, the job trace store and the serve protocol. They live in obs/
// because that is the lowest layer that needs them — obs must not depend on
// core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

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

/// One leg lifecycle transition. Enqueued events fire from the coordinating
/// thread after the grid is flattened (before any leg runs, so before its
/// path is known: replayed and cached are false); Started and Finished fire
/// concurrently from worker threads. The struct is POD with
/// truncating fixed-size names, so the journal's rings and the flight
/// recorder's crash ring copy it without allocating.
struct LegEvent {
    enum class Phase : std::uint8_t { Enqueued, Started, Finished };

    Phase phase = Phase::Enqueued;
    std::uint32_t leg = 0;     ///< canonical leg index
    std::uint32_t worker = 0;  ///< dense worker id (coordinator events: 0)
    char benchmark[16] = {};
    char scheme[24] = {};
    std::int32_t voltageMv = 0;
    std::uint32_t trial = 0;
    bool replayed = false;          ///< served by the trace-replay fast path
    bool cached = false;            ///< slot filled from the content-addressed store
    bool linkFailed = false;        ///< Finished only
    char failCause[16] = {};        ///< Finished only ("none" when healthy)
    std::uint64_t startNs = 0;      ///< Finished only: steady_clock since-epoch at leg start
    std::uint64_t durationNs = 0;   ///< Finished only
    std::uint64_t timestampNs = 0;  ///< stamped by the journal / flight recorder
    std::uint64_t sequence = 0;     ///< stamped by the journal / flight recorder
    // Owning job's trace context (obs/trace_context.h), stamped by the job's
    // telemetry scope; all zero = untraced. spanId is the leg's deterministic
    // child span, childSpanId(trace, leg).
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
    std::uint64_t spanId = 0;

    void setBenchmark(std::string_view name) noexcept { copyName(benchmark, name); }
    void setScheme(std::string_view name) noexcept { copyName(scheme, name); }
    void setFailCause(std::string_view name) noexcept { copyName(failCause, name); }

private:
    template <std::size_t N>
    static void copyName(char (&dest)[N], std::string_view src) noexcept {
        const std::size_t n = std::min(src.size(), N - 1);
        std::memcpy(dest, src.data(), n);
        dest[n] = '\0';
    }
};

/// "enqueued" / "started" / "finished": a string literal, so the flight
/// recorder may call it from its signal handler.
[[nodiscard]] constexpr const char* legPhaseName(LegEvent::Phase phase) noexcept {
    switch (phase) {
    case LegEvent::Phase::Enqueued: return "enqueued";
    case LegEvent::Phase::Started: return "started";
    case LegEvent::Phase::Finished: return "finished";
    }
    return "?";
}

static_assert(std::is_trivially_copyable_v<LegEvent>, "ring slots copy LegEvents without allocating");

} // namespace voltcache::obs
