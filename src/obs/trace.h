// The one timeline: every traced event of a job — profiler phase spans,
// finished sweep legs, worker-utilization counters and the simulator's
// instant events — lands in one bounded ring of one event type per job and
// is rendered by one Chrome trace-event writer (JobTraceStore::toChromeJson).
// `sweep --trace`, `sweep --trace-job`, `run`/`stats --trace`, the telemetry
// plane's GET /trace/<job> and `voltcache trace` all read that document.
//
// A job is open from JobTraceStore::beginJob to endJob; the newest open job
// is the current one, and every event goes to the current job's ring:
//   - Span    ("ph":"X", cat "phase"): an obs::Span closing with profiling on;
//   - Leg     ("ph":"X", cat "leg" / "leg,cached"): a Finished obs::LegEvent;
//   - Counter ("ph":"C"): a UtilizationSampler reading;
//   - Instant ("ph":"i"): a scheme / linker / simulator trace point — only
//     when the job was opened with instant events on.
// With nothing collecting, a trace point costs one relaxed atomic load and a
// branch: instant sites test instantEventsOn(), obs::Span tests
// JobTraceStore::collecting(), before either builds an event.
//
// Every event carries the recording thread's obs::threadSlot() as its tid
// and an obs::steadyNowNs() start stamp, rendered in µs relative to the
// job's open. Slots are recycled, so tids stay below the peak number of live
// threads, and threads that ran one after another may share a track.
// A ring grows on demand to its capacity — kMaxEventsWithInstants with
// instant events on, kMaxSpansPerJob otherwise — and then overwrites its
// oldest event, so a long job keeps its most recent window. Each job counts
// its overwrites (the document's droppedSpans) and every overwrite also bumps
// the process-wide "obs.trace_dropped_total" counter.
//
// Event names, categories and arg keys must be string literals (or otherwise
// outlive the store): events store the pointers, never copies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_context.h"

namespace voltcache::obs {

/// One key/value argument attached to an event.
struct TraceArg {
    const char* key = nullptr; ///< string literal
    std::int64_t value = 0;
};

inline constexpr std::size_t kMaxTraceArgs = 7;

/// What an event is, and how the writer renders it.
enum class TracePhase : std::uint8_t {
    Instant, ///< "ph":"i" — a point event
    Span,    ///< "ph":"X" — a complete duration event (a profiler phase)
    Counter, ///< "ph":"C" — a counter sample (args are the series values)
    Leg,     ///< "ph":"X" — a finished sweep leg (fields in TraceEvent::leg)
};

/// A Leg event's grid fields, copied from its Finished LegEvent. No member
/// initializers: it shares TraceEvent's union, and recordLeg writes it whole.
struct TraceLeg {
    std::uint64_t spanId;
    char benchmark[sizeof(LegEvent::benchmark)];
    char scheme[sizeof(LegEvent::scheme)];
    std::int32_t voltageMv;
    std::uint32_t trial;
    std::uint32_t worker; ///< sweep worker index (rendered in args)
    bool replayed;
    bool cached;
    bool linkFailed;
};

/// The one timeline event.
struct TraceEvent {
    const char* name = nullptr;     ///< string literal (Leg: unused)
    const char* category = nullptr; ///< string literal (Leg: unused)
    std::uint64_t startNs = 0;      ///< steadyNowNs() stamp
    std::uint64_t durationNs = 0;   ///< Span and Leg events
    std::uint32_t tid = 0;          ///< recording thread's obs::threadSlot()
    TracePhase phase = TracePhase::Instant;
    std::uint8_t argCount = 0;
    union {
        std::array<TraceArg, kMaxTraceArgs> args{}; ///< Instant, Span, Counter
        TraceLeg leg;                               ///< Leg
    };
};

static_assert(std::is_trivially_copyable_v<TraceEvent>, "ring slots copy events by value");
static_assert(sizeof(TraceEvent) <= 152, "every serve job records its legs into this ring");

/// A bounded event ring: storage grows on demand up to `capacity`, then each
/// new event overwrites the oldest. Unsynchronized: JobTraceStore's lock
/// guards every job's ring.
class TraceRing {
public:
    explicit TraceRing(std::size_t capacity);

    /// The slot for the next event, to be filled in place: a new slot while
    /// the ring grows, then the oldest event's.
    [[nodiscard]] TraceEvent& claim();

    /// Events oldest-first (at most `capacity` of them).
    [[nodiscard]] std::vector<TraceEvent> events() const;

    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
    /// Events lost to overwrite.
    [[nodiscard]] std::uint64_t dropped() const noexcept { return next_ - slots_.size(); }

private:
    std::size_t capacity_;
    std::vector<TraceEvent> slots_;
    std::uint64_t next_ = 0; ///< claims so far; slot next_ % capacity_ is the oldest
    Counter droppedTotal_;   ///< process-wide "obs.trace_dropped_total"
};

/// Bounded collector of recent jobs' timelines. All methods are thread-safe.
class JobTraceStore {
public:
    static constexpr std::size_t kMaxJobs = 16;
    /// Ring capacity of a job without instant events.
    static constexpr std::size_t kMaxSpansPerJob = 8192;
    /// Ring capacity of a job with instant events on.
    static constexpr std::size_t kMaxEventsWithInstants = std::size_t{1} << 16;

    [[nodiscard]] static JobTraceStore& global();

    /// True while some job is open (one relaxed load — the hot-path guard
    /// for span, leg and counter events).
    [[nodiscard]] static bool collecting() noexcept;

    /// Open a job keyed by both `job` (label) and the context's trace id and
    /// make it the current job; evicts the oldest job beyond kMaxJobs. An
    /// invalid context opens nothing.
    void beginJob(const std::string& job, const TraceContext& context, bool instants = false);

    /// Close the job owning `context`'s trace id (its timeline stays
    /// queryable); the newest job still open becomes current.
    void endJob(const TraceContext& context);

    /// Append an event to the current job's ring, filled in place and
    /// stamped with the calling thread's slot as tid. No-op when no job is open.
    /// Args beyond kMaxTraceArgs are dropped.
    void record(TracePhase phase, const char* name, const char* category, std::uint64_t startNs,
                std::uint64_t durationNs, std::initializer_list<TraceArg> args);

    /// Append a Finished leg (stamped with its spanId and startNs) to the
    /// current job's ring. Cached legs render at duration 0 with their
    /// store-lookup wall time in args.wallNs.
    void recordLeg(const LegEvent& finished);

    /// Chrome trace-event JSON for a job by label or by 32-hex trace id
    /// (the newest match); empty string when unknown. The header carries
    /// kind "trace", job, trace, open, spanCount (events in the ring) and
    /// droppedSpans (events overwritten).
    [[nodiscard]] std::string toChromeJson(std::string_view jobOrTraceId) const;

    /// A job's ring: events kept and events overwritten (the document's
    /// spanCount and droppedSpans); zeros when unknown.
    struct RingCounts {
        std::uint64_t kept = 0;
        std::uint64_t dropped = 0;
    };
    [[nodiscard]] RingCounts ringCounts(std::string_view jobOrTraceId) const;

    /// One-line-per-job index: [{"job":..., "trace":..., "spans":N,
    /// "droppedSpans":N, "open":bool}, ...] newest first.
    [[nodiscard]] std::string indexJson() const;

    /// Forget every job (tests).
    void clear();

private:
    JobTraceStore();
    ~JobTraceStore();

    struct Impl;
    Impl* impl_; ///< leaked with the singleton; spans may close at exit
};

/// True while the current job takes instant events (one relaxed load).
[[nodiscard]] bool instantEventsOn() noexcept;

/// Record an instant event, stamped now, into the current job when it takes
/// instant events.
void traceInstant(const char* name, const char* category,
                  std::initializer_list<TraceArg> args = {});

/// Record a complete span that started at `startNs` (a steadyNowNs() stamp)
/// into the current job.
void traceSpan(const char* name, const char* category, std::uint64_t startNs,
               std::uint64_t durationNs, std::initializer_list<TraceArg> args = {});

/// Record a counter sample, stamped now, into the current job; each arg is
/// one series value.
void traceCounter(const char* name, const char* category,
                  std::initializer_list<TraceArg> args);

} // namespace voltcache::obs
