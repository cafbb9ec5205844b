// The one event ring: every traced event — profiler phase spans, sweep leg
// lifecycle events, worker-utilization counters and the simulator's instant
// events — is recorded into a lock-free ring owned by the recording thread's
// obs::threadSlot(), and every reader walks those rings:
//   - the Chrome trace-event writer (JobTraceStore::toChromeJson) merges one
//     job's events from every ring by timestamp — `sweep --trace`,
//     `sweep --trace-job`, `run`/`stats --trace`, the telemetry plane's
//     GET /trace/<job> and `voltcache trace` all read that document;
//   - the NDJSON leg journal (obs/export/journal.h) drains the leg events;
//   - the flight recorder (obs/flight_recorder.h) dumps the recent leg
//     events from its crash path.
//
// Each slot below kMaxThreadSlots owns three lanes of one ring class, so no
// kind of event can evict another's:
//   - the timeline lane: phase spans, sampler counters and the Finished legs
//     of traced jobs — what the Chrome writer renders besides instants;
//   - the leg lane: every leg lifecycle event (enqueued / started /
//     finished), recorded only while a journal or flight recorder takes
//     them, and read by those two alone;
//   - the instant lane: the simulator's instant events, so the fault-buffer
//     flood of a `--trace` sweep cannot evict leg and phase spans.
// A lane is allocated by its owner on its first event, never resized and
// never freed (a slot passes to the next new thread with its rings), and
// overwrites its oldest event when full. Overwrites bump the process-wide
// "obs.trace_dropped_total".
//
// A job is open from JobTraceStore::beginJob to endJob and owns a serial;
// the newest open job is the current one, and span, counter and instant
// events are tagged with its serial:
//   - Span    ("ph":"X", cat "phase"): an obs::Span closing with profiling on;
//   - Leg     ("ph":"X", cat "leg" / "leg,cached"): a Finished obs::LegEvent,
//     tagged by its sweep's job scope (recordLegSpan);
//   - Counter ("ph":"C"): a UtilizationSampler reading;
//   - Instant ("ph":"i"): a scheme / linker / simulator trace point — only
//     when the job was opened with instant events on.
// With nothing collecting, a trace point costs one relaxed atomic load and a
// branch: instant sites test instantEventsOn(), obs::Span tests
// JobTraceStore::collecting(), before either builds an event.
//
// The ring's slot is the event's tid; start stamps are obs::steadyNowNs(),
// rendered in µs relative to the job's open. Slots are recycled, so tids
// stay below the peak number of live threads, and threads that ran one after
// another may share a track.
//
// Event names, categories and arg keys must be string literals (or otherwise
// outlive the rings): events store the pointers, never copies.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

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
    Leg,     ///< a leg lifecycle event (TraceEvent::leg); a Finished one renders as "X"
};

/// An Instant, Span or Counter event's fields.
struct TracePoint {
    const char* name;         ///< string literal
    const char* category;     ///< string literal
    std::uint64_t startNs;    ///< steadyNowNs() stamp
    std::uint64_t durationNs; ///< Span events
    std::array<TraceArg, kMaxTraceArgs> args;
};

/// The one event type every ring holds.
struct TraceEvent {
    TraceEvent() noexcept : point{} {}

    std::uint32_t job = 0; ///< serial of the job it belongs to; 0 = none
    TracePhase phase = TracePhase::Instant;
    std::uint8_t argCount = 0; ///< TracePoint::args in use
    union {
        TracePoint point; ///< Instant, Span, Counter
        LegEvent leg;     ///< Leg; its timestampNs is the steadyNowNs() it was recorded at
    };
};

static_assert(std::is_trivially_copyable_v<TraceEvent>, "ring slots copy events by value");
static_assert(sizeof(TraceEvent) <= 152, "every serve job records its legs into the rings");
static_assert(sizeof(TraceEvent) % sizeof(std::uint64_t) == 0, "ring slots store whole words");

/// A single-producer ring of TraceEvents that overwrites its oldest event.
/// The owning thread pushes; any thread, a signal handler included, reads.
/// A slot is the event's words as atomics plus a stamp: push clears the
/// stamp, stores the words, stamps the slot with the event's index + 1 and
/// publishes the count, all with release stores. read() copies the words
/// and re-checks the stamp, so an event being overwritten reads as lost,
/// never half-written.
class EventRing {
public:
    /// `capacity` must be a power of two.
    explicit EventRing(std::size_t capacity);

    /// Owner thread only. Overwriting the oldest event bumps
    /// "obs.trace_dropped_total".
    void push(const TraceEvent& event) noexcept;

    /// Copy event number `index` (0-based since the ring's creation) into
    /// `out`; false when it was overwritten, is being overwritten, or was
    /// never recorded.
    [[nodiscard]] bool read(std::uint64_t index, TraceEvent& out) const noexcept;

    /// Events pushed so far.
    [[nodiscard]] std::uint64_t recorded() const noexcept {
        return recorded_.load(std::memory_order_acquire);
    }
    /// Index of the oldest event the ring can still hold for `recorded`
    /// events; the ones before it were overwritten.
    [[nodiscard]] std::uint64_t oldest(std::uint64_t recorded) const noexcept {
        return recorded > mask_ ? recorded - mask_ - 1 : 0;
    }

private:
    static constexpr std::size_t kWords = sizeof(TraceEvent) / sizeof(std::uint64_t);
    struct Slot {
        std::atomic<std::uint64_t> stamp{0}; ///< index + 1 of the event held; 0 = none
        std::array<std::atomic<std::uint64_t>, kWords> words{};
    };

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_;
    std::atomic<std::uint64_t> recorded_{0};
    Counter droppedTotal_; ///< process-wide "obs.trace_dropped_total"
};

/// A slot's three lanes.
enum class TraceLane : std::uint8_t { Timeline, Legs, Instants };
inline constexpr std::size_t kTraceLanes = 3;

/// Lane capacities (EXPERIMENTS.md, "One event ring per thread slot", has
/// the measurements). The timeline lane holds what one job's ring held
/// before the rings were per thread; the leg lane what the journal's ring per
/// producer held; the instant lane what one job's `--trace` ring held.
inline constexpr std::size_t kTimelineLaneEvents = 8192;
inline constexpr std::size_t kLegLaneEvents = 4096;
inline constexpr std::size_t kInstantLaneEvents = std::size_t{1} << 15;

/// Slot `slot`'s ring for `lane`; nullptr until its owner records into it.
/// Async-signal-safe (one acquire load).
[[nodiscard]] const EventRing* eventRing(std::uint32_t slot, TraceLane lane) noexcept;

/// Record a leg lifecycle event, stamped now, into the calling thread's leg
/// lane, where the journal and the flight recorder read it.
void recordLegEvent(const LegEvent& event);

/// Record a Finished leg into the calling thread's timeline lane, where job
/// `job`'s timeline (its serial) renders it.
void recordLegSpan(const LegEvent& finished, std::uint32_t job);

/// Leg events lost because their thread's slot is past kMaxThreadSlots and
/// so owns no ring.
[[nodiscard]] std::uint64_t legEventsWithoutRing() noexcept;

/// Bounded index of recent jobs' timelines. All methods are thread-safe; the
/// record path takes no lock.
class JobTraceStore {
public:
    static constexpr std::size_t kMaxJobs = 16;

    [[nodiscard]] static JobTraceStore& global();

    /// True while some job is open (one relaxed load — the hot-path guard
    /// for span and counter events).
    [[nodiscard]] static bool collecting() noexcept;

    /// Open a job keyed by both `job` (label) and the context's trace id and
    /// make it the current job; evicts the oldest job beyond kMaxJobs.
    /// Returns the job's serial, which tags its events; an invalid context
    /// opens nothing and returns 0.
    std::uint32_t beginJob(const std::string& job, const TraceContext& context,
                           bool instants = false);

    /// Close the job owning `context`'s trace id (its timeline stays
    /// queryable); the newest job still open becomes current.
    void endJob(const TraceContext& context);

    /// Chrome trace-event JSON for a job by label or by 32-hex trace id
    /// (the newest match); empty string when unknown. The header carries
    /// kind "trace", job, trace, open, spanCount (the job's events the rings
    /// still hold) and droppedSpans (the job's events they no longer hold).
    [[nodiscard]] std::string toChromeJson(std::string_view jobOrTraceId) const;

    /// One-line-per-job index: [{"job":..., "trace":..., "spans":N,
    /// "droppedSpans":N, "open":bool}, ...] newest first.
    [[nodiscard]] std::string indexJson() const;

    /// Forget every job (tests). Serials are never reused, so the events the
    /// rings still hold belong to no job from then on.
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
