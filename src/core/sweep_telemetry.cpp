#include "core/sweep_telemetry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace voltcache {

std::size_t sweepJournalProducers(unsigned threads) {
    // runSweep may clamp its workers down to the unit count, never up.
    return std::size_t{detail::sweepWorkers(threads)} + 1;
}

SweepJobScope::SweepJobScope(SweepConfig& config, std::string_view label,
                             const SweepTelemetry& sinks)
    : sinks_(sinks) {
    if (sinks.board != nullptr) sinks.board->beginJob(std::string(label));
    obs::JobTraceStore::global().beginJob(std::string(label), sinks.trace, sinks.instants);
    if (sinks.flight != nullptr) sinks.flight->noteJob(label, sinks.trace);

    if (sinks.journal != nullptr) {
        const auto rings =
            static_cast<unsigned>(std::max<std::size_t>(sinks.journal->producers(), 2) - 1);
        if (config.threads == 0 || config.threads > rings) config.threads = rings;
    }
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
    if (sinks.journal != nullptr || sinks.flight != nullptr || sinks.trace.valid()) {
        config.onLegEvent = [sinks, next = std::move(config.onLegEvent)](
                                const obs::LegEvent& event) {
            const bool finished = event.phase == obs::LegEvent::Phase::Finished;
            // The job trace keeps only Finished legs: with no other consumer,
            // the Enqueued and Started phases cost nothing past this test.
            if (!finished && sinks.journal == nullptr && sinks.flight == nullptr && !next) {
                return;
            }
            obs::LegEvent stamped = event;
            if (sinks.trace.valid()) {
                stamped.traceHi = sinks.trace.traceHi;
                stamped.traceLo = sinks.trace.traceLo;
                stamped.spanId = obs::childSpanId(sinks.trace, event.leg);
            }
            if (sinks.flight != nullptr) sinks.flight->noteLegEvent(stamped);
            if (sinks.journal != nullptr) {
                sinks.journal->emit(
                    event.phase == obs::LegEvent::Phase::Enqueued ? 0 : event.worker + 1,
                    stamped);
            }
            if (finished && sinks.trace.valid()) {
                obs::JobTraceStore::global().recordLeg(stamped);
            }
            if (next) next(stamped);
        };
    }
}

SweepJobScope::~SweepJobScope() {
    if (sinks_.trace.valid()) obs::JobTraceStore::global().endJob(sinks_.trace);
    if (sinks_.board != nullptr) sinks_.board->finish();
}

} // namespace voltcache
