// Machine-readable export of the reproduction harness results: each bench
// binary can emit a BENCH_<artifact>.json beside its human-readable table,
// so CI and plotting scripts consume the same numbers the console shows.
// Output directory: $VOLTCACHE_BENCH_DIR (default: current directory).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/version.h"
#include "core/sweep.h"

namespace voltcache::bench {

/// One exported data point: `value` with a confidence-interval half-width
/// (0 when the metric is deterministic or has < 2 samples).
struct BenchMetric {
    std::string name;
    double value = 0.0;
    double ciHalfWidth = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

inline std::string benchOutputPath(const char* artifact) {
    const char* dir = std::getenv("VOLTCACHE_BENCH_DIR");
    std::string path = dir != nullptr && dir[0] != '\0' ? dir : ".";
    path += "/BENCH_";
    path += artifact;
    path += ".json";
    return path;
}

/// Write {artifact, version, seed, trials, scale, metrics:[...]} to
/// BENCH_<artifact>.json. Prints the destination (or a warning on failure);
/// never throws — export must not fail the bench run itself.
inline void writeBenchJson(const char* artifact, const SweepConfig& config,
                           const std::vector<BenchMetric>& metrics) {
    JsonWriter json;
    json.beginObject();
    json.member("artifact", artifact);
    json.member("version", buildVersion());
    json.member("seed", config.baseSeed);
    json.member("trials", config.trials);
    json.member("scale", workloadScaleName(config.scale));
    json.key("metrics");
    json.beginArray();
    for (const BenchMetric& metric : metrics) {
        json.beginObject();
        json.member("name", metric.name);
        json.member("value", metric.value);
        json.member("ci_half_width", metric.ciHalfWidth);
        json.member("unit", metric.unit);
        json.member("n", metric.samples);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    const std::string path = benchOutputPath(artifact);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    const std::string text = json.str();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nexported %s\n", path.c_str());
}

/// Metric for one (scheme, voltage) accumulator: "<prefix>/<scheme>/<mv>mV".
inline BenchMetric cellMetric(const std::string& prefix, SchemeKind scheme, int mv,
                              const RunningStats& stats, const std::string& unit) {
    BenchMetric metric;
    metric.name = prefix + "/" + std::string(schemeName(scheme)) + "/" +
                  std::to_string(mv) + "mV";
    metric.value = stats.mean();
    metric.ciHalfWidth = confidenceInterval(stats).halfWidth;
    metric.unit = unit;
    metric.samples = stats.count();
    return metric;
}

} // namespace voltcache::bench
