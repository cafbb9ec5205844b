// Async-signal-safe black-box flight recorder.
//
// The recent leg events of every thread (read from the leg lanes of the
// event rings in obs/trace.h, where a sweep's job scope records them while a
// recorder is installed), a bounded mirror of the metrics registry, the
// latest progress tick, and every live thread's active span stack (one
// fixed stack per obs::threadSlot() below kMaxThreadSlots, passed on with
// the slot) — all maintained as plain POD + atomics on the normal path, and
// dumped WITHOUT any allocation from three failure paths:
//   * SIGSEGV / SIGABRT (sigaction handlers installed by install()),
//   * a VC_EXPECTS / VC_ENSURES / VC_CHECK failure (common/contracts.h hook,
//     which fires at the failure site before the exception unwinds — the
//     sweep executor would otherwise swallow the leg and rethrow later),
//   * an explicit dumpNow() (tests, operator request).
//
// The dump is one bounded JSON document ("kind":"flight") written with
// write(2) to a file descriptor pre-opened at install() time, so the crash
// path needs no open(), no malloc, no stdio, and no locks: it walks the
// rings with plain loads. `voltcache trace <dump>` renders it; the ci.sh
// negative control asserts it parses.
//
// Normal-path costs: the recorder keeps no events of its own; the span-stack
// feed adds one relaxed atomic load to every obs::Span construction (the
// `trace.ctx_overhead_ns` bench guards it). When no recorder is installed
// every feed is a single relaxed load and a branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/progress.h"
#include "obs/trace_context.h"

namespace voltcache::obs {

class FlightRecorder {
public:
    struct Options {
        std::string path; ///< dump target (created at install)
    };

    /// The dump holds each thread slot's newest leg events recorded since
    /// install — at most this many per slot — oldest first, each with its
    /// slot and its index (`seq`) in the slot's leg lane since install.
    static constexpr std::size_t kDumpEventsPerSlot = 512;

    /// Create/replace the process-wide recorder: pre-opens (and truncates)
    /// the dump file, installs the SIGSEGV/SIGABRT handlers and the contract
    /// hook, and arms the span-stack feed. Throws on an unwritable path.
    /// The recorder is process-wide and intentionally leaked.
    static FlightRecorder& install(const Options& options);

    /// The installed recorder, or nullptr (the common case — feeds gate on
    /// this with one relaxed load).
    [[nodiscard]] static FlightRecorder* instance() noexcept;

    /// Normal-path feeds (thread-safe, allocation-free, never block).
    /// Copies the tick's counters (not its benchmark name) into atomics.
    void noteProgress(const SweepProgress& progress) noexcept;
    void noteJob(std::string_view label, const TraceContext& context) noexcept;

    /// Refresh the bounded metrics mirror from the global registry. NOT
    /// async-signal-safe — call it from the normal path (progress ticks);
    /// the crash path dumps whatever the last refresh captured.
    void noteMetrics();

    /// Async-signal-safe dump. Only the first call writes (later calls are
    /// no-ops until rearm()); returns true when this call performed the
    /// write. `reason`/`detail` must be NUL-terminated (string literals or
    /// stack buffers — never heap).
    bool dumpNow(const char* reason, const char* detail = nullptr) noexcept;

    /// Re-enable dumping after a dumpNow (tests; the file is rewritten from
    /// the start on the next dump).
    void rearm() noexcept;

    /// Leg events recorded into the leg lanes since install.
    [[nodiscard]] std::uint64_t eventsNoted() const noexcept;

private:
    explicit FlightRecorder(const Options& options);
    ~FlightRecorder();

    struct Impl;
    Impl* impl_;
};

/// Span-stack feed, called by obs::Span. Enter returns false when the span
/// was not recorded (the thread's slot is past the pool, or its stack is at
/// full depth) so exit() calls stay balanced.
[[nodiscard]] bool flightSpanEnter(const char* name) noexcept;
void flightSpanExit() noexcept;

/// One relaxed load: is a recorder installed?
[[nodiscard]] bool flightRecorderArmed() noexcept;

} // namespace voltcache::obs
