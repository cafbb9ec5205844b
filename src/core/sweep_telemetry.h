// The one place that joins runSweep's observation hooks to the obs telemetry
// plane: the /progress board, the NDJSON leg journal, the flight recorder and
// the job trace store. `voltcache sweep` and `voltcache serve` both run a job
// inside a SweepJobScope, so a leg's obs::LegEvent reaches every sink in the
// same shape on both paths, and the job's observers open and close in one
// order whether the sweep returns or throws.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "core/sweep.h"
#include "obs/export/journal.h"
#include "obs/export/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"

namespace voltcache {

/// LegJournal producer count for sweeps run with `threads` workers
/// (0 = hardware concurrency): one ring per worker plus the coordinator's.
[[nodiscard]] std::size_t sweepJournalProducers(unsigned threads);

/// Telemetry sinks a sweep job can feed; null members (and an invalid
/// trace) are skipped.
struct SweepTelemetry {
    obs::ProgressBoard* board = nullptr;   ///< latest tick, for /progress
    obs::LegJournal* journal = nullptr;    ///< NDJSON leg lifecycle lines
    obs::FlightRecorder* flight = nullptr; ///< crash black box
    obs::TraceContext trace;               ///< the job's trace; invalid = untraced
};

/// One sweep job's observation scope. The constructor labels the board,
/// opens the job's trace in the JobTraceStore, names the job in the flight
/// recorder, routes `config`'s hooks into the sinks, and makes the job's
/// trace the current context (so obs::Span phase spans attribute to it).
/// The destructor undoes it in order: it restores the previous context
/// before closing the trace — so no late span lands in a closed trace —
/// then marks the board finished. It runs on the exception path too.
///
/// Routing: hooks the config already carries still run, after the sinks,
/// and see each LegEvent stamped with the job's trace id and the leg's
/// childSpanId(trace, leg). Journal producer 0 is the coordinator (Enqueued
/// events) and worker w writes ring 1 + w; the rings are single-producer, so
/// with a journal attached the sweep runs at most as many workers as the
/// journal has worker rings. Finished legs are recorded into the job trace.
class SweepJobScope {
public:
    SweepJobScope(SweepConfig& config, std::string_view label, const SweepTelemetry& sinks);
    ~SweepJobScope();
    SweepJobScope(const SweepJobScope&) = delete;
    SweepJobScope& operator=(const SweepJobScope&) = delete;

private:
    SweepTelemetry sinks_;
    std::optional<obs::ScopedTraceContext> traceScope_;
};

} // namespace voltcache
