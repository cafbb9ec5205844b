// Per-job distributed-tracing context for the serve plane.
//
// A TraceContext is a 128-bit trace id plus the 64-bit span id of the
// current scope, both drawn from the repo's own SHA-256 (common/hash.h) so
// ids are well-mixed without a CSPRNG dependency. The id is minted once per
// job — by `voltcache submit` on the client, or by the serve daemon when a
// client did not choose one — and propagated through the NDJSON protocol,
// the session queue, the executor, and into every sweep leg: each leg's
// obs::LegEvent carries (traceHi, traceLo, spanId) where spanId is the leg's
// child span derived deterministically from (trace id, parent span, leg
// index). Derivation, not random draws, keeps the sweep byte-identical and
// replayable: the same job config always yields the same span tree.
//
// JobTraceStore is the in-process span collector behind the telemetry
// plane's `/trace/<job>` endpoint and `voltcache trace`: a bounded ring of
// recent jobs, each holding a bounded list of closed spans (legs and
// profiler phases), rendered on demand as Chrome trace-event JSON. Cached
// legs (PR 9 store hits) are annotated as zero-cost spans — duration 0 on
// the timeline, actual lookup wall time preserved as an arg.
//
// Collection is observer-only and off by default: when no job is being
// collected, the hot-path guard is one relaxed atomic load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/progress.h"

namespace voltcache::obs {

/// 128-bit trace id + the 64-bit span id of the owning scope. Zero trace id
/// means "tracing off" — the safe default everywhere.
struct TraceContext {
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
    std::uint64_t spanId = 0;

    [[nodiscard]] bool valid() const noexcept { return (traceHi | traceLo) != 0; }

    friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Mint a fresh root context: the trace id hashes `label`, the wall clock,
/// the process id, and a process-local counter, so concurrent clients and
/// repeated jobs never collide. The root span id is rootSpanId(id).
[[nodiscard]] TraceContext makeRootContext(std::string_view label);

/// Deterministic root span id: a pure function of the 128-bit trace id, so
/// a client that minted the id and a server that re-parsed it from hex agree
/// on the span tree without shipping the span id over the wire.
[[nodiscard]] std::uint64_t rootSpanId(const TraceContext& context);

/// Deterministic child span id: hash of (trace id, parent span id, index).
/// The sweep uses the canonical leg index, so a replayed job reproduces the
/// exact same span tree.
[[nodiscard]] std::uint64_t childSpanId(const TraceContext& parent, std::uint64_t index);

/// 32 lowercase hex chars (hi then lo). Invalid contexts render as "".
[[nodiscard]] std::string traceIdHex(const TraceContext& context);

/// 16 lowercase hex chars.
[[nodiscard]] std::string spanIdHex(std::uint64_t spanId);

/// Parse a 32-hex-char trace id into traceHi/traceLo and set spanId to the
/// root span id. Returns false (context unmodified) on malformed input.
[[nodiscard]] bool parseTraceIdHex(std::string_view hex, TraceContext& context);

/// Process-current context, fed by the job executor and read by obs::Span
/// when it reports into the collector. Plain atomics: the serve executor
/// runs one job at a time and the CLI runs one sweep per process, so a
/// process-global current context is exact.
[[nodiscard]] TraceContext currentTraceContext() noexcept;
void setCurrentTraceContext(const TraceContext& context) noexcept;

/// RAII current-context scope (restores the previous context).
class ScopedTraceContext {
public:
    explicit ScopedTraceContext(const TraceContext& context) noexcept
        : previous_(currentTraceContext()) {
        setCurrentTraceContext(context);
    }
    ~ScopedTraceContext() { setCurrentTraceContext(previous_); }
    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

private:
    TraceContext previous_;
};

/// One closed span inside a job's trace. A leg span is the sweep's Finished
/// LegEvent as is: its spanId, startNs (steady_clock since-epoch),
/// durationNs and worker time the span, and its grid fields annotate it. A
/// profiler phase span sets `phase` and only those four timing fields.
struct JobSpan {
    const char* phase = nullptr;    ///< phase name (a string literal); nullptr = leg span
    std::uint64_t parentSpanId = 0; ///< 0 = child of the job root
    LegEvent event;
};

/// Bounded collector of recent jobs' span trees. All methods are
/// thread-safe; record() drops (and counts) beyond the per-job span cap so a
/// million-leg sweep cannot balloon the daemon.
class JobTraceStore {
public:
    static constexpr std::size_t kMaxJobs = 16;
    static constexpr std::size_t kMaxSpansPerJob = 8192;

    [[nodiscard]] static JobTraceStore& global();

    /// True when some job is currently collecting (one relaxed load — the
    /// hot-path guard for span feeds).
    [[nodiscard]] static bool collecting() noexcept;

    /// Open a new job keyed by both `job` (label) and the context's trace
    /// id; evicts the oldest job beyond kMaxJobs.
    void beginJob(const std::string& job, const TraceContext& context);

    /// Close the current job (collection stops; the trace stays queryable).
    void endJob(const TraceContext& context);

    /// Append one closed span to the job owning `context`'s trace id.
    /// No-op when the trace id matches no open job.
    void record(const TraceContext& context, const JobSpan& span);

    /// Record a finished leg (its Finished LegEvent, stamped with spanId and
    /// startNs) as a child of `context`'s root span.
    void recordLeg(const TraceContext& context, const LegEvent& finished);

    /// Convenience for obs::Span: attribute a closed phase span to the
    /// process-current context.
    void recordCurrent(const char* name, std::uint64_t startNs, std::uint64_t durationNs);

    /// Chrome trace-event JSON ({"traceEvents":[...]}) for a job by label or
    /// by 32-hex trace id; empty string when unknown.
    [[nodiscard]] std::string toChromeJson(std::string_view jobOrTraceId) const;

    /// One-line-per-job index: [{"job":..., "trace":..., "spans":N,
    /// "open":bool}, ...] newest first.
    [[nodiscard]] std::string indexJson() const;

    /// Spans dropped beyond kMaxSpansPerJob since construction.
    [[nodiscard]] std::uint64_t dropped() const noexcept;

    /// Forget every job (tests).
    void clear();

private:
    JobTraceStore();
    ~JobTraceStore();

    struct Impl;
    Impl* impl_; ///< leaked with the singleton; spans may close at exit
};

} // namespace voltcache::obs
