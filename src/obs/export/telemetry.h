// Live telemetry plane: the HTTP exporter and the sweep progress board.
//
// TelemetryServer serves five routes on a dedicated exporter thread:
//   GET /metrics     — Prometheus text exposition of MetricsRegistry::global()
//   GET /progress    — live sweep progress JSON from a ProgressBoard (legs,
//                      benchmarks, EWMA throughput + ETA, per-phase span
//                      attribution, counter rates since the previous scrape)
//   GET /healthz     — JSON health document: status, build version (git
//                      describe), uptime seconds, serve.store occupancy
//   GET /trace       — index of recently traced jobs (obs/trace_context.h)
//   GET /trace/<job> — one job's span tree as Chrome trace-event JSON, by
//                      job label or 32-hex trace id (load it in
//                      chrome://tracing / Perfetto, or render with
//                      `voltcache trace`)
//
// ProgressBoard keeps the latest sweep progress tick (obs/progress.h):
// runSweep's onProgress hook feeds update(), /progress (and `voltcache top`)
// read toJson(). The board owns the EWMA legs/s estimate and the delta
// snapshot that turns cumulative counters into rates, so every scraper sees
// server-computed rates instead of re-deriving them (see
// MetricsRegistry::snapshotDelta).
//
// Everything here is observer-only: the board and server read executor state
// through atomics/snapshots and never touch leg computation, so attaching a
// telemetry plane cannot perturb the sweep's byte-identical JSON export.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "obs/export/http_server.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace voltcache::obs {

/// Latest-tick store + EWMA throughput/ETA, rendered as /progress JSON.
class ProgressBoard {
public:
    ProgressBoard();

    /// Thread-safe; called from the sweep's progress hook (already
    /// serialized under the sweep's progress lock, but the board takes its
    /// own mutex so scrapers may race it safely).
    void update(const SweepProgress& tick);

    /// Mark the sweep finished (the final /progress documents report done).
    void finish();

    /// Start a new unit of work on the same board (`voltcache serve` reuses
    /// one board across jobs): labels subsequent /progress documents with
    /// `job`, clears the done flag, and resets the EWMA throughput estimate
    /// so one job's tail does not pollute the next job's ETA.
    void beginJob(const std::string& job);

    /// Render the /progress document. Includes per-phase span attribution
    /// (when the profiler is enabled) and counter rates since the previous
    /// toJson() call.
    [[nodiscard]] std::string toJson();

    /// EWMA legs/second estimate (0 until two ticks arrived).
    [[nodiscard]] double ewmaLegsPerSec() const;

private:
    mutable std::mutex mutex_;
    SweepProgress latest_;
    std::string job_;
    bool done_ = false;
    std::uint64_t startNs_ = 0;
    std::uint64_t lastTickNs_ = 0;
    std::size_t lastTickLegs_ = 0;
    double ewmaLegsPerSec_ = 0.0;
    std::optional<TimedMetricsSnapshot> prevScrape_;
};

/// The /metrics + /progress + /healthz exporter. Construction binds and
/// starts serving; destruction stops the exporter thread.
class TelemetryServer {
public:
    /// `port` 0 binds an ephemeral port (report it via port()). The board
    /// must outlive the server.
    TelemetryServer(std::uint16_t port, ProgressBoard& board);
    ~TelemetryServer() = default;
    TelemetryServer(const TelemetryServer&) = delete;
    TelemetryServer& operator=(const TelemetryServer&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
    [[nodiscard]] std::uint64_t scrapes() const noexcept {
        return server_.requestsServed();
    }

private:
    HttpServer server_;
};

} // namespace voltcache::obs
