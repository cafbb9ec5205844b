// Machine-readable result export: JSON renderings of the sweep and
// single-leg result structs (SweepResult / SweepCell / RunStats / L1Stats /
// LinkStats). The JSON layer reads the structs' public accessors only; the
// structs themselves stay plain aggregates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "core/sweep.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace voltcache {

namespace analysis {
struct CrosscheckReport;
} // namespace analysis

/// Provenance attached to a sweep export. `version` defaults to the
/// configure-time git describe (pass a fixed string for golden tests).
struct SweepExportMeta {
    std::string version;
    std::uint64_t seed = 0;
    std::uint32_t trials = 0;
    std::string scale;
    std::vector<std::string> benchmarks;
    double ciLevel = 0.95;
    /// Optional extra top-level members appended before the closing brace
    /// (e.g. the analytic cross-check report: `json.key("analytic"); ...`).
    std::function<void(JsonWriter&)> extensions;
};

/// The provenance of a sweep run with `config`: build version, seed, trials,
/// scale, and the benchmark list (all ten when the config names none). A
/// non-null `analytic` report is appended as the "analytic" member; it must
/// outlive the returned meta.
[[nodiscard]] SweepExportMeta sweepExportMeta(
    const SweepConfig& config, const analysis::CrosscheckReport* analytic = nullptr);

/// Emit {"n","mean","stddev","min","max","ciHalfWidth"} for one accumulator.
void writeJson(JsonWriter& json, const RunningStats& stats, double ciLevel = 0.95);
void writeJson(JsonWriter& json, const L1Stats& stats);
void writeJson(JsonWriter& json, const RunStats& stats);
void writeJson(JsonWriter& json, const LinkStats& stats);
void writeJson(JsonWriter& json, const SweepCell& cell, double ciLevel = 0.95);

/// Full sweep export: meta + per-(scheme, voltage) cells + per-benchmark
/// cells, each with CI half-widths for normEpi / normRuntime / l2PerKilo.
[[nodiscard]] std::string sweepResultToJson(const SweepResult& result,
                                            const SweepExportMeta& meta);

/// Single-leg export (CLI `run`/`stats` --json).
struct RunExportMeta {
    std::string version;
    std::string benchmark;
    std::string scheme;
    int voltageMv = 0;
    std::uint64_t seed = 0;
};
void writeJson(JsonWriter& json, const SystemResult& result);
[[nodiscard]] std::string systemResultToJson(const SystemResult& result,
                                             const RunExportMeta& meta);

/// Emit one cell's forensic distributions (FFW window/recenter histograms,
/// BBR chunk/displacement histograms, yield-loss cause counts).
void writeJson(JsonWriter& json, const CellForensics& cell);

/// Self-profile export (`voltcache sweep --profile`): per-span timing
/// aggregates plus a metrics-registry snapshot. `coverage` is the summed
/// span self-time divided by the measured wall time — the acceptance
/// criterion for "the profiler explains where the sweep went".
struct ProfileExportMeta {
    std::string version;
    double wallSeconds = 0.0;
    unsigned threads = 0;
};
[[nodiscard]] std::string profileToJson(const std::vector<obs::SpanStat>& spans,
                                        const std::vector<obs::MetricSnapshot>& metrics,
                                        const ProfileExportMeta& meta);

} // namespace voltcache
