#include "core/sweep_telemetry.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace voltcache {

obs::JournalEvent journalEventFrom(const SweepLegEvent& event) {
    obs::JournalEvent line;
    switch (event.phase) {
        case SweepLegEvent::Phase::Enqueued:
            line.phase = obs::JournalEvent::Phase::Enqueued;
            break;
        case SweepLegEvent::Phase::Started:
            line.phase = obs::JournalEvent::Phase::Started;
            break;
        case SweepLegEvent::Phase::Finished:
            line.phase = obs::JournalEvent::Phase::Finished;
            break;
    }
    line.leg = static_cast<std::uint32_t>(event.leg);
    line.worker = event.worker;
    line.setBenchmark(event.benchmark);
    line.setScheme(schemeName(event.scheme));
    line.voltageMv = event.voltageMv;
    line.trial = event.trial;
    line.replayed = event.replayed;
    line.cached = event.cached;
    line.linkFailed = event.linkFailed;
    line.durationNs = event.durationNs;
    line.setFailCause(linkFailCauseName(event.failCause));
    line.traceHi = event.traceHi;
    line.traceLo = event.traceLo;
    line.spanId = event.spanId;
    return line;
}

std::size_t sweepJournalProducers(unsigned threads) {
    // runSweep's own sizing rule (it may clamp down to the unit count,
    // never up).
    unsigned workers = threads != 0 ? threads : std::thread::hardware_concurrency();
    if (workers == 0) workers = 4;
    return std::size_t{workers} + 1;
}

void attachTelemetry(SweepConfig& config, const SweepTelemetry& sinks) {
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
    if (sinks.journal != nullptr || sinks.flight != nullptr) {
        config.onLegEvent = [sinks, next = std::move(config.onLegEvent)](
                                const SweepLegEvent& event) {
            const obs::JournalEvent line = journalEventFrom(event);
            if (sinks.flight != nullptr) sinks.flight->noteLegEvent(line);
            if (sinks.journal != nullptr) {
                sinks.journal->emit(
                    event.phase == SweepLegEvent::Phase::Enqueued ? 0 : event.worker + 1,
                    line);
            }
            if (next) next(event);
        };
    }
}

} // namespace voltcache
