// RAII hierarchical timing spans — the sweep's self-profiler.
//
// A Span stamps obs::steadyNowNs() on construction and destruction and
// attributes the elapsed time to its name. Spans nest lexically per thread:
// each thread keeps a stack of live spans, and a closing span subtracts its
// total from the parent's *self* time, so for any thread the self times of
// all spans partition that thread's wall clock (a root span covering the
// whole phase makes the partition exact).
//
// The aggregates are metrics-registry families, sharded by the registry's
// recycled thread slot: "prof.span_ns"{span=name} (a log2 histogram: count
// and total time) and "prof.span_self_ns"{span=name} (a counter: self time).
// Each thread caches its handles per name, so the hot path takes no lock
// another thread contends, and an exited thread's totals stay in the cells.
//
// Profiling is globally off by default: a disabled Span construction is one
// relaxed atomic load and a branch (bench_micro's BM_SpanDisabled prints its
// cost; no gate checks it). When enabled, a closing span also lands, while a
// job is open, in the current job's timeline (obs/trace.h) as a "phase"
// duration event on the closing thread's track — so one sweep yields both
// the aggregate profile and the per-leg timeline.
//
// Span names must be string literals (stored by pointer, like every
// timeline event name).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace voltcache::obs {

/// Aggregated timing of one span name across all threads.
struct SpanStat {
    std::string name;
    std::uint64_t count = 0;   ///< spans closed under this name
    std::uint64_t totalNs = 0; ///< wall time inside the span (children included)
    std::uint64_t selfNs = 0;  ///< totalNs minus time spent in child spans
};

/// Process-wide profiler switch + aggregate access.
class Profiler {
public:
    [[nodiscard]] static bool enabled() noexcept;
    static void setEnabled(bool on) noexcept;

    /// The registry's span families since the last reset(), as a name-sorted
    /// list (deterministic for fixed aggregates); names with no span closed
    /// since then are omitted. Concurrent spans are tolerated; a still-open
    /// span is simply not counted yet.
    [[nodiscard]] static std::vector<SpanStat> snapshot();

    /// Start snapshot() from zero (tests / between CLI phases) by recording
    /// the current totals as a baseline. The registry's counters themselves
    /// stay monotonic for /metrics and metricsDelta. Live spans keep running
    /// and count when they close.
    static void reset();
};

/// One timed scope. Construct with a string literal; the destructor closes
/// the span. Non-copyable and non-movable: the per-thread stack stores raw
/// parent pointers into enclosing stack frames.
///
/// The flight recorder's active span stack (obs/flight_recorder.h) rides
/// the same scope: one extra relaxed load when no recorder is installed.
class Span {
public:
    explicit Span(const char* name) noexcept;
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    void close() noexcept; ///< the end of a span opened with profiling on

    const char* name_ = nullptr; ///< nullptr == profiling was off at construction
    Span* parent_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t childNs_ = 0; ///< accumulated totals of closed children
    bool flight_ = false; ///< pushed onto the flight recorder's span stack
};

} // namespace voltcache::obs
