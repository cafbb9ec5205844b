#include "core/sweep_telemetry.h"

#include <string>
#include <utility>

#include "obs/trace.h"

namespace voltcache {

SweepJobScope::SweepJobScope(SweepConfig& config, std::string_view label,
                             const SweepTelemetry& sinks)
    : sinks_(sinks),
      job_(obs::JobTraceStore::global().beginJob(std::string(label), sinks.trace, sinks.instants)) {
    if (sinks.board != nullptr) sinks.board->beginJob(std::string(label));
    if (sinks.flight != nullptr) sinks.flight->noteJob(label, sinks.trace);

    if (sinks.board != nullptr || sinks.flight != nullptr) {
        config.onProgress = [sinks, next = std::move(config.onProgress)](
                                const SweepProgress& tick) {
            if (sinks.board != nullptr) sinks.board->update(tick);
            if (sinks.flight != nullptr) {
                // A crash dump then shows how far the sweep got.
                sinks.flight->noteProgress(tick);
                sinks.flight->noteMetrics();
            }
            if (next) next(tick);
        };
    }
    const bool lifecycle = sinks.journal != nullptr || sinks.flight != nullptr;
    if (lifecycle || sinks.trace.valid()) {
        config.onLegEvent = [trace = sinks.trace, job = job_, lifecycle,
                             next = std::move(config.onLegEvent)](const obs::LegEvent& event) {
            const bool finished = event.phase == obs::LegEvent::Phase::Finished;
            // The job trace keeps only Finished legs: with no other consumer,
            // the Enqueued and Started phases cost nothing past this test.
            if (!finished && !lifecycle && !next) return;
            obs::LegEvent stamped = event;
            if (trace.valid()) {
                stamped.traceHi = trace.traceHi;
                stamped.traceLo = trace.traceLo;
                stamped.spanId = obs::childSpanId(trace, event.leg);
            }
            if (lifecycle) obs::recordLegEvent(stamped);
            if (finished && job != 0) obs::recordLegSpan(stamped, job);
            if (next) next(stamped);
        };
    }
}

SweepJobScope::~SweepJobScope() {
    if (sinks_.trace.valid()) obs::JobTraceStore::global().endJob(sinks_.trace);
    if (sinks_.board != nullptr) sinks_.board->finish();
}

} // namespace voltcache
