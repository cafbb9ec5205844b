#include "obs/export/telemetry.h"

#include "common/json.h"
#include "common/version.h"
#include "obs/clock.h"
#include "obs/export/prometheus.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace voltcache::obs {

ProgressBoard::ProgressBoard() : startNs_(steadyNowNs()), lastTickNs_(startNs_) {}

void ProgressBoard::update(const SweepProgress& tick) {
    const std::uint64_t now = steadyNowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    // EWMA of the instantaneous legs/s between ticks: robust to the bursty
    // tick cadence (leg ticks are throttled, boundary ticks are not).
    if (tick.legsCompleted > lastTickLegs_ && now > lastTickNs_) {
        const double instantaneous =
            static_cast<double>(tick.legsCompleted - lastTickLegs_) /
            (static_cast<double>(now - lastTickNs_) * 1e-9);
        ewmaLegsPerSec_ = ewmaLegsPerSec_ == 0.0
                              ? instantaneous
                              : 0.7 * ewmaLegsPerSec_ + 0.3 * instantaneous;
        lastTickNs_ = now;
        lastTickLegs_ = tick.legsCompleted;
    }
    latest_ = tick;
}

void ProgressBoard::finish() {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
}

void ProgressBoard::beginJob(const std::string& job) {
    const std::uint64_t now = steadyNowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    done_ = false;
    latest_ = SweepProgress{};
    ewmaLegsPerSec_ = 0.0;
    lastTickNs_ = now;
    lastTickLegs_ = 0;
}

std::optional<double> ProgressBoard::etaSeconds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return etaSecondsLocked();
}

std::optional<double> ProgressBoard::etaSecondsLocked() const {
    if (ewmaLegsPerSec_ <= 0.0 || latest_.legsTotal < latest_.legsCompleted) return {};
    return static_cast<double>(latest_.legsTotal - latest_.legsCompleted) / ewmaLegsPerSec_;
}

std::string ProgressBoard::toJson() {
    // Snapshot the registry before taking the board lock (the registry has
    // its own lock; never hold both in the other order anywhere).
    TimedMetricsSnapshot fresh = MetricsRegistry::global().snapshotTimed();
    const std::vector<SpanStat> spans = Profiler::snapshot();

    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricRate> rates;
    if (prevScrape_.has_value()) rates = metricsDelta(*prevScrape_, fresh);
    prevScrape_ = std::move(fresh);

    const std::uint64_t now = steadyNowNs();
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "progress");
    json.member("done", done_);
    if (!job_.empty()) json.member("job", job_);
    json.member("elapsedSeconds", static_cast<double>(now - startNs_) * 1e-9);
    json.key("benchmarks");
    json.beginObject();
    json.member("completed", static_cast<std::uint64_t>(latest_.benchmarksCompleted));
    json.member("total", static_cast<std::uint64_t>(latest_.benchmarksTotal));
    json.member("latest", latest_.benchmark);
    json.endObject();
    json.key("legs");
    json.beginObject();
    json.member("completed", static_cast<std::uint64_t>(latest_.legsCompleted));
    json.member("total", static_cast<std::uint64_t>(latest_.legsTotal));
    json.member("replayed", static_cast<std::uint64_t>(latest_.legsReplayed));
    json.member("executed", static_cast<std::uint64_t>(latest_.legsExecuted));
    json.member("cached", static_cast<std::uint64_t>(latest_.legsCached));
    json.endObject();
    json.member("workers", latest_.workers);
    json.member("ewmaLegsPerSec", ewmaLegsPerSec_);
    if (const std::optional<double> eta = etaSecondsLocked()) {
        json.member("etaSeconds", *eta);
    } else {
        json.key("etaSeconds");
        json.null();
    }
    // Per-phase span attribution (empty unless the profiler is enabled).
    json.key("spans");
    json.beginArray();
    std::uint64_t totalSelfNs = 0;
    for (const SpanStat& span : spans) totalSelfNs += span.selfNs;
    for (const SpanStat& span : spans) {
        json.beginObject();
        json.member("name", span.name);
        json.member("count", span.count);
        json.member("totalNs", span.totalNs);
        json.member("selfNs", span.selfNs);
        json.member("selfFrac", totalSelfNs == 0
                                    ? 0.0
                                    : static_cast<double>(span.selfNs) /
                                          static_cast<double>(totalSelfNs));
        json.endObject();
    }
    json.endArray();
    // Counter rates since the previous /progress scrape (first scrape: []).
    json.key("rates");
    json.beginArray();
    for (const MetricRate& rate : rates) {
        json.beginObject();
        json.member("name", rate.name);
        json.key("labels");
        json.beginObject();
        for (const auto& [k, v] : rate.labels) json.member(k, v);
        json.endObject();
        json.member("delta", rate.delta);
        json.member("perSec", rate.perSec);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

TelemetryServer::TelemetryServer(std::uint16_t port, ProgressBoard& board)
    : server_(port) {
    server_.route("/metrics", [] {
        HttpServer::Response response;
        response.contentType = "text/plain; version=0.0.4; charset=utf-8";
        response.body = renderPrometheus(MetricsRegistry::global().snapshot());
        return response;
    });
    server_.route("/progress", [&board] {
        HttpServer::Response response;
        response.contentType = "application/json";
        response.body = board.toJson();
        return response;
    });
    const std::uint64_t bootNs = steadyNowNs();
    server_.route("/healthz", [bootNs] {
        // Build identity + uptime + store occupancy: enough for a probe to
        // tell a fresh daemon from a wedged one and an empty store from a
        // warm one, without parsing the whole /metrics exposition.
        double storeEntries = 0.0;
        double storeBytes = 0.0;
        for (const MetricSnapshot& metric : MetricsRegistry::global().snapshot()) {
            if (metric.name == "serve.store.entries") storeEntries = metric.value;
            if (metric.name == "serve.store.bytes") storeBytes = metric.value;
        }
        JsonWriter json;
        json.beginObject();
        json.member("status", "ok");
        json.member("version", buildVersion());
        json.member("uptimeSeconds",
                    static_cast<double>(steadyNowNs() - bootNs) * 1e-9);
        json.key("store");
        json.beginObject();
        json.member("entries", storeEntries);
        json.member("bytes", storeBytes);
        json.endObject();
        json.endObject();
        HttpServer::Response response;
        response.contentType = "application/json";
        response.body = json.str() + "\n";
        return response;
    });
    // Per-job timelines (obs/trace.h): /trace lists the recent jobs,
    // /trace/<job-or-trace-id> renders one as Chrome trace JSON.
    server_.route("/trace", [] {
        HttpServer::Response response;
        response.contentType = "application/json";
        response.body = JobTraceStore::global().indexJson() + "\n";
        return response;
    });
    server_.routePrefix("/trace/", [](std::string_view suffix) {
        HttpServer::Response response;
        const std::string body =
            JobTraceStore::global().toChromeJson(suffix);
        if (body.empty()) {
            response.status = 404;
            response.body = "no trace for '" + std::string(suffix) + "'\n";
            return response;
        }
        response.contentType = "application/json";
        response.body = body + "\n";
        return response;
    });
    server_.start();
}

} // namespace voltcache::obs
