// The one bridge from runSweep's observation hooks to the obs telemetry
// plane: the /progress board, the NDJSON leg journal, and the flight
// recorder. `voltcache sweep` and `voltcache serve` attach through it, so a
// leg event reaches every sink in the same shape on both paths.
#pragma once

#include <cstddef>

#include "core/sweep.h"
#include "obs/export/journal.h"
#include "obs/export/telemetry.h"
#include "obs/flight_recorder.h"

namespace voltcache {

/// The journal line for one leg lifecycle event.
[[nodiscard]] obs::JournalEvent journalEventFrom(const SweepLegEvent& event);

/// LegJournal producer count for sweeps run with `threads` workers
/// (0 = hardware concurrency): one ring per worker plus the coordinator's.
[[nodiscard]] std::size_t sweepJournalProducers(unsigned threads);

/// Telemetry sinks a sweep can feed; null members are skipped.
struct SweepTelemetry {
    obs::ProgressBoard* board = nullptr;   ///< latest tick, for /progress
    obs::LegJournal* journal = nullptr;    ///< NDJSON leg lifecycle lines
    obs::FlightRecorder* flight = nullptr; ///< crash black box
};

/// Route `config`'s progress ticks and leg events into `sinks`; hooks the
/// config already carries still run, after the sinks. Journal producer 0 is
/// the coordinator (Enqueued events) and worker w writes ring 1 + w. The
/// rings are single-producer, so with a journal attached the sweep runs at
/// most as many workers as the journal has worker rings.
void attachTelemetry(SweepConfig& config, const SweepTelemetry& sinks);

} // namespace voltcache
