#include "core/report.h"

#include "analysis/crosscheck.h"
#include "common/version.h"
#include "schemes/scheme.h"
#include "workload/workload.h"

namespace voltcache {

namespace {

/// Emit a log2-bucketed forensic histogram as sparse {low, count} pairs
/// (most buckets are empty; the sparse form keeps the export readable).
template <std::size_t N>
void writeLog2Histogram(JsonWriter& json, const std::array<std::uint64_t, N>& buckets) {
    json.beginArray();
    for (std::size_t b = 0; b < N; ++b) {
        if (buckets[b] == 0) continue;
        json.beginObject();
        json.member("low", forensicsLog2BucketLow(b));
        json.member("count", buckets[b]);
        json.endObject();
    }
    json.endArray();
}

/// Emit a dense small-domain histogram (index == value).
template <std::size_t N>
void writeDenseHistogram(JsonWriter& json, const std::array<std::uint64_t, N>& counts) {
    json.beginArray();
    for (const std::uint64_t count : counts) json.value(count);
    json.endArray();
}

} // namespace

void writeJson(JsonWriter& json, const RunningStats& stats, double ciLevel) {
    json.beginObject();
    json.member("n", stats.count());
    json.member("mean", stats.mean());
    json.member("stddev", stats.stddev());
    json.member("min", stats.min());
    json.member("max", stats.max());
    json.member("ciHalfWidth", confidenceInterval(stats, ciLevel).halfWidth);
    json.endObject();
}

void writeJson(JsonWriter& json, const L1Stats& stats) {
    json.beginObject();
    json.member("accesses", stats.accesses);
    json.member("hits", stats.hits);
    json.member("lineMisses", stats.lineMisses);
    json.member("wordMisses", stats.wordMisses);
    json.member("l2Reads", stats.l2Reads);
    json.member("missRatio", stats.missRatio());
    json.endObject();
}

void writeJson(JsonWriter& json, const RunStats& stats) {
    json.beginObject();
    json.member("instructions", stats.instructions);
    json.member("cycles", stats.cycles);
    json.member("halted", stats.halted);
    json.member("ipc", stats.ipc());
    json.member("loads", stats.loads);
    json.member("stores", stats.stores);
    json.member("condBranches", stats.condBranches);
    json.member("takenBranches", stats.takenBranches);
    json.member("mispredicts", stats.mispredicts);
    json.member("busyCycles", stats.busyCycles());
    json.member("ifetchStallCycles", stats.ifetchStallCycles);
    json.member("dmemStallCycles", stats.dmemStallCycles);
    json.member("branchStallCycles", stats.branchStallCycles);
    json.member("execStallCycles", stats.execStallCycles);
    json.member("l2Accesses", stats.activity.l2Accesses);
    json.member("l2AccessesPerKilo", stats.l2AccessesPerKilo());
    json.endObject();
}

void writeJson(JsonWriter& json, const LinkStats& stats) {
    json.beginObject();
    json.member("blocksPlaced", stats.blocksPlaced);
    json.member("gapWords", stats.gapWords);
    json.member("imageWords", stats.imageWords);
    json.member("codeWords", stats.codeWords);
    json.member("largestBlockWords", stats.largestBlockWords);
    json.member("scanRestarts", stats.scanRestarts);
    json.member("wrapArounds", stats.wrapArounds);
    json.endObject();
}

void writeJson(JsonWriter& json, const SweepCell& cell, double ciLevel) {
    json.beginObject();
    json.member("runs", cell.runs);
    json.member("linkFailures", cell.linkFailures);
    json.key("normRuntime");
    writeJson(json, cell.normRuntime, ciLevel);
    json.key("l2PerKilo");
    writeJson(json, cell.l2PerKilo, ciLevel);
    json.key("normEpi");
    writeJson(json, cell.normEpi, ciLevel);
    json.key("busyFrac");
    writeJson(json, cell.busyFrac, ciLevel);
    json.key("ifetchFrac");
    writeJson(json, cell.ifetchFrac, ciLevel);
    json.key("dmemFrac");
    writeJson(json, cell.dmemFrac, ciLevel);
    json.key("branchFrac");
    writeJson(json, cell.branchFrac, ciLevel);
    json.endObject();
}

SweepExportMeta sweepExportMeta(const SweepConfig& config,
                                const analysis::CrosscheckReport* analytic) {
    SweepExportMeta meta;
    meta.version = std::string(buildVersion());
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = workloadScaleName(config.scale);
    meta.benchmarks = sweepGrid(config).benchmarks;
    if (analytic != nullptr) {
        meta.extensions = [analytic](JsonWriter& json) {
            json.key("analytic");
            analysis::writeJson(json, *analytic);
        };
    }
    return meta;
}

std::string sweepResultToJson(const SweepResult& result, const SweepExportMeta& meta) {
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "sweep");
    json.member("version", meta.version);
    json.member("seed", meta.seed);
    json.member("trials", meta.trials);
    json.member("scale", meta.scale);
    json.key("benchmarks");
    json.beginArray();
    for (const std::string& name : meta.benchmarks) json.value(name);
    json.endArray();
    json.member("ciLevel", meta.ciLevel);

    json.key("cells");
    json.beginArray();
    for (const auto& [key, cell] : result.cells) {
        json.beginObject();
        json.member("scheme", schemeName(key.first));
        json.member("mv", static_cast<std::int64_t>(key.second));
        json.key("stats");
        writeJson(json, cell, meta.ciLevel);
        json.endObject();
    }
    json.endArray();

    json.key("perBenchmark");
    json.beginArray();
    for (const auto& [key, cell] : result.perBenchmark) {
        json.beginObject();
        json.member("benchmark", std::get<0>(key));
        json.member("scheme", schemeName(std::get<1>(key)));
        json.member("mv", static_cast<std::int64_t>(std::get<2>(key)));
        json.key("stats");
        writeJson(json, cell, meta.ciLevel);
        json.endObject();
    }
    json.endArray();

    json.key("forensics");
    json.beginArray();
    for (const auto& [key, cell] : result.forensics) {
        json.beginObject();
        json.member("scheme", schemeName(key.first));
        json.member("mv", static_cast<std::int64_t>(key.second));
        writeJson(json, cell);
        json.endObject();
    }
    json.endArray();

    if (meta.extensions) meta.extensions(json);

    json.endObject();
    return json.str();
}

void writeJson(JsonWriter& json, const CellForensics& cell) {
    json.member("legs", cell.legs);
    if (cell.ffwLegs > 0) {
        json.key("ffw");
        json.beginObject();
        json.member("legs", cell.ffwLegs);
        json.member("recenters", cell.ffwRecenters);
        json.key("windowWords");
        writeDenseHistogram(json, cell.ffwWindowSize);
        json.key("recenterDistance");
        writeDenseHistogram(json, cell.ffwRecenterDistance);
        json.endObject();
    }
    if (cell.bbrLegs > 0) {
        json.key("bbr");
        json.beginObject();
        json.member("legs", cell.bbrLegs);
        json.member("blocksPlaced", cell.bbrBlocksPlaced);
        json.key("chunkWords");
        writeLog2Histogram(json, cell.bbrChunkWords);
        json.key("displacementWords");
        writeLog2Histogram(json, cell.bbrDisplacement);
        json.endObject();
    }
    json.key("yieldLoss");
    json.beginObject();
    for (std::size_t cause = 1; cause < cell.yieldLoss.size(); ++cause) {
        if (cell.yieldLoss[cause] == 0) continue;
        json.member(linkFailCauseName(static_cast<LinkFailCause>(cause)),
                    cell.yieldLoss[cause]);
    }
    json.endObject();
}

std::string profileToJson(const std::vector<obs::SpanStat>& spans,
                          const std::vector<obs::MetricSnapshot>& metrics,
                          const ProfileExportMeta& meta) {
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "profile");
    json.member("version", meta.version);
    json.member("wallSeconds", meta.wallSeconds);
    json.member("threads", static_cast<std::uint64_t>(meta.threads));

    double selfSeconds = 0.0;
    for (const obs::SpanStat& span : spans) {
        selfSeconds += static_cast<double>(span.selfNs) * 1e-9;
    }
    json.member("selfSeconds", selfSeconds);
    json.member("coverage",
                meta.wallSeconds > 0.0 ? selfSeconds / meta.wallSeconds : 0.0);

    json.key("spans");
    json.beginArray();
    for (const obs::SpanStat& span : spans) {
        json.beginObject();
        json.member("name", span.name);
        json.member("count", span.count);
        json.member("totalNs", span.totalNs);
        json.member("selfNs", span.selfNs);
        json.member("selfFrac", meta.wallSeconds > 0.0
                                    ? static_cast<double>(span.selfNs) * 1e-9 /
                                          meta.wallSeconds
                                    : 0.0);
        json.endObject();
    }
    json.endArray();

    json.key("metrics");
    obs::writeMetrics(json, metrics);

    json.endObject();
    return json.str();
}

void writeJson(JsonWriter& json, const SystemResult& result) {
    json.beginObject();
    json.member("linkFailed", result.linkFailed);
    json.key("run");
    writeJson(json, result.run);
    json.key("icache");
    writeJson(json, result.icacheStats);
    json.key("dcache");
    writeJson(json, result.dcacheStats);
    json.key("link");
    writeJson(json, result.linkStats);
    json.member("epi", result.epi);
    json.member("runtimeSeconds", result.runtimeSeconds);
    json.member("checksum", result.checksum);
    json.key("energy");
    json.beginObject();
    json.member("coreDynamic", result.energyBreakdown.coreDynamic);
    json.member("l1Dynamic", result.energyBreakdown.l1Dynamic);
    json.member("l2Dynamic", result.energyBreakdown.l2Dynamic);
    json.member("dramDynamic", result.energyBreakdown.dramDynamic);
    json.member("auxDynamic", result.energyBreakdown.auxDynamic);
    json.member("coreL1Static", result.energyBreakdown.coreL1Static);
    json.member("l2Static", result.energyBreakdown.l2Static);
    json.member("total", result.energyBreakdown.total());
    json.endObject();
    json.endObject();
}

std::string systemResultToJson(const SystemResult& result, const RunExportMeta& meta) {
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "run");
    json.member("version", meta.version);
    json.member("benchmark", meta.benchmark);
    json.member("scheme", meta.scheme);
    json.member("mv", static_cast<std::int64_t>(meta.voltageMv));
    json.member("seed", meta.seed);
    json.key("result");
    writeJson(json, result);
    json.endObject();
    return json.str();
}

} // namespace voltcache
