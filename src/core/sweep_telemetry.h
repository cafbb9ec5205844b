// The one place that joins runSweep's observation hooks to the obs telemetry
// plane: the /progress board, the NDJSON leg journal, the flight recorder and
// the job's timeline. `voltcache sweep` and `voltcache serve` both run a job
// inside a SweepJobScope, so a leg's obs::LegEvent reaches every sink in the
// same shape on both paths, and the job's observers open and close in one
// order whether the sweep returns or throws.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/sweep.h"
#include "obs/export/journal.h"
#include "obs/export/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"

namespace voltcache {

/// Telemetry sinks a sweep job can feed; null members (and an invalid
/// trace) are skipped.
struct SweepTelemetry {
    obs::ProgressBoard* board = nullptr;   ///< latest tick, for /progress
    obs::LegJournal* journal = nullptr;    ///< NDJSON leg lifecycle lines
    obs::FlightRecorder* flight = nullptr; ///< crash black box
    obs::TraceContext trace;               ///< the job's trace; invalid = untraced
    bool instants = false;                 ///< the timeline also takes instant events
};

/// One sweep job's observation scope. The constructor labels the board,
/// opens the job's timeline in the JobTraceStore (the current job from then
/// on, so obs::Span phase spans and sampler counters land in it), names the
/// job in the flight recorder and routes `config`'s hooks into the sinks.
/// The destructor closes the timeline — so no late span lands in it — then
/// marks the board finished. It runs on the exception path too.
///
/// Routing: each LegEvent is stamped with the job's trace id and the leg's
/// childSpanId(trace, leg) and recorded into the recording thread's event
/// rings: every phase into its leg lane when a journal or flight recorder is
/// attached (obs::recordLegEvent), which both read, and each Finished leg of
/// a traced job into its timeline lane (obs::recordLegSpan), which the job's
/// timeline renders — so a journal's Enqueued and Started events never evict
/// a leg span. Hooks the config already carries still run, after the
/// recording, and see the stamped event.
class SweepJobScope {
public:
    SweepJobScope(SweepConfig& config, std::string_view label, const SweepTelemetry& sinks);
    ~SweepJobScope();
    SweepJobScope(const SweepJobScope&) = delete;
    SweepJobScope& operator=(const SweepJobScope&) = delete;

private:
    SweepTelemetry sinks_;
    std::uint32_t job_ = 0; ///< the timeline's serial (0 = untraced)
};

} // namespace voltcache
