#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "common/contracts.h"
#include "common/json.h"

namespace voltcache::obs {
namespace {

/// Small dense thread id (0-based) for shard indexing; stable per thread.
/// An exiting thread releases its id and the next new thread takes it, so
/// ids (and the cells keyed by them) are bounded by the live thread count.
class ThreadIds {
public:
    static ThreadIds& instance() {
        static auto* ids = new ThreadIds(); // leaked: threads exit after static dtors
        return *ids;
    }
    std::uint64_t acquire() {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (free_.empty()) return next_++;
        const std::uint64_t id = free_.back();
        free_.pop_back();
        return id;
    }
    void release(std::uint64_t id) {
        const std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(id);
    }

private:
    std::mutex mutex_;
    std::vector<std::uint64_t> free_;
    std::uint64_t next_ = 0;
};

struct ThreadIdLease {
    const std::uint64_t id = ThreadIds::instance().acquire();
    ThreadIdLease() = default;
    ThreadIdLease(const ThreadIdLease&) = delete;
    ThreadIdLease& operator=(const ThreadIdLease&) = delete;
    ~ThreadIdLease() { ThreadIds::instance().release(id); }
};

std::uint64_t threadId() noexcept {
    thread_local const ThreadIdLease lease;
    return lease.id;
}

/// Canonical family key: name + sorted labels, with separators that cannot
/// appear in reasonable metric names.
std::string familyKey(std::string_view name, const LabelList& labels) {
    LabelList sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key(name);
    for (const auto& [k, v] : sorted) {
        key += '\x1f';
        key += k;
        key += '\x1e';
        key += v;
    }
    return key;
}

const char* kindName(MetricKind kind) {
    switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

} // namespace

std::size_t histogramBucket(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t histogramBucketLow(std::size_t bucket) noexcept {
    if (bucket == 0) return 0;
    return std::uint64_t{1} << (bucket - 1);
}

struct MetricsRegistry::Family {
    MetricKind kind = MetricKind::Counter;
    std::string name;
    LabelList labels;
    // Cells live in deques: growth never invalidates handed-out pointers.
    std::deque<detail::CounterCell> counterCells;
    std::deque<detail::HistogramCell> histogramCells;
    detail::GaugeCell gaugeCell;
    std::unordered_map<std::uint64_t, std::size_t> cellOfThread;

    std::size_t cellIndexFor(std::uint64_t tid) {
        const auto [it, inserted] = cellOfThread.try_emplace(
            tid, kind == MetricKind::Histogram ? histogramCells.size() : counterCells.size());
        if (inserted) {
            if (kind == MetricKind::Histogram) {
                histogramCells.emplace_back();
            } else {
                counterCells.emplace_back();
            }
        }
        return it->second;
    }
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::familyFor(std::string_view name, const LabelList& labels,
                                                    MetricKind kind) {
    const std::string key = familyKey(name, labels);
    auto it = families_.find(key);
    if (it == families_.end()) {
        auto family = std::make_unique<Family>();
        family->kind = kind;
        family->name = std::string(name);
        family->labels = labels;
        it = families_.emplace(key, std::move(family)).first;
    }
    VC_EXPECTS(it->second->kind == kind); // family registered with another kind
    return *it->second;
}

Counter MetricsRegistry::counter(std::string_view name, const LabelList& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Family& family = familyFor(name, labels, MetricKind::Counter);
    return Counter(&family.counterCells[family.cellIndexFor(threadId())]);
}

Gauge MetricsRegistry::gauge(std::string_view name, const LabelList& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Family& family = familyFor(name, labels, MetricKind::Gauge);
    return Gauge(&family.gaugeCell);
}

Histogram MetricsRegistry::histogram(std::string_view name, const LabelList& labels) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Family& family = familyFor(name, labels, MetricKind::Histogram);
    return Histogram(&family.histogramCells[family.cellIndexFor(threadId())]);
}

void MetricsRegistry::add(std::string_view name, const LabelList& labels, std::uint64_t delta) {
    counter(name, labels).add(delta);
}

void MetricsRegistry::set(std::string_view name, const LabelList& labels, double value) {
    gauge(name, labels).set(value);
}

void MetricsRegistry::observe(std::string_view name, const LabelList& labels, std::uint64_t value) {
    histogram(name, labels).observe(value);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSnapshot> out;
    out.reserve(families_.size());
    for (const auto& [key, family] : families_) {
        MetricSnapshot snap;
        snap.name = family->name;
        snap.labels = family->labels;
        snap.kind = family->kind;
        switch (family->kind) {
        case MetricKind::Counter:
            for (const auto& cell : family->counterCells) {
                snap.count += cell.value.load(std::memory_order_relaxed);
            }
            snap.value = static_cast<double>(snap.count);
            break;
        case MetricKind::Gauge:
            snap.value = family->gaugeCell.value.load(std::memory_order_relaxed);
            break;
        case MetricKind::Histogram: {
            snap.buckets.assign(kHistogramBuckets, 0);
            for (const auto& cell : family->histogramCells) {
                for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
                    snap.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
                }
                snap.count += cell.count.load(std::memory_order_relaxed);
                snap.sum += cell.sum.load(std::memory_order_relaxed);
            }
            while (!snap.buckets.empty() && snap.buckets.back() == 0) snap.buckets.pop_back();
            snap.value = snap.count == 0
                             ? 0.0
                             : static_cast<double>(snap.sum) / static_cast<double>(snap.count);
            break;
        }
        }
        out.push_back(std::move(snap));
    }
    // families_ is keyed by name + sorted labels, so iteration is already
    // deterministic; keep the order.
    return out;
}

std::size_t MetricsRegistry::cells() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& [key, family] : families_) {
        total += family->counterCells.size() + family->histogramCells.size();
    }
    return total;
}

TimedMetricsSnapshot MetricsRegistry::snapshotTimed() const {
    TimedMetricsSnapshot timed;
    timed.monotonicNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    timed.metrics = snapshot();
    return timed;
}

std::vector<MetricRate> MetricsRegistry::snapshotDelta(TimedMetricsSnapshot& prev) const {
    TimedMetricsSnapshot now = snapshotTimed();
    std::vector<MetricRate> rates = metricsDelta(prev, now);
    prev = std::move(now);
    return rates;
}

std::vector<MetricRate> metricsDelta(const TimedMetricsSnapshot& prev,
                                     const TimedMetricsSnapshot& now) {
    const double seconds =
        now.monotonicNs > prev.monotonicNs
            ? static_cast<double>(now.monotonicNs - prev.monotonicNs) * 1e-9
            : 0.0;
    // Both snapshots are (name, labels)-sorted, so a single map over prev
    // resolves matches; the delta list keeps now's deterministic order.
    std::map<std::pair<std::string, LabelList>, std::uint64_t> before;
    for (const MetricSnapshot& snap : prev.metrics) {
        if (snap.kind == MetricKind::Gauge) continue;
        before.emplace(std::make_pair(snap.name, snap.labels), snap.count);
    }
    std::vector<MetricRate> rates;
    rates.reserve(now.metrics.size());
    for (const MetricSnapshot& snap : now.metrics) {
        if (snap.kind == MetricKind::Gauge) continue;
        MetricRate rate;
        rate.name = snap.name;
        rate.labels = snap.labels;
        const auto it = before.find(std::make_pair(snap.name, snap.labels));
        const std::uint64_t was = it != before.end() ? it->second : 0;
        rate.delta = snap.count > was ? snap.count - was : 0;
        rate.perSec = seconds > 0.0 ? static_cast<double>(rate.delta) / seconds : 0.0;
        rates.push_back(std::move(rate));
    }
    return rates;
}

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

void writeMetrics(JsonWriter& json, const std::vector<MetricSnapshot>& snapshot) {
    json.beginArray();
    for (const MetricSnapshot& snap : snapshot) {
        json.beginObject();
        json.member("name", snap.name);
        json.member("kind", kindName(snap.kind));
        json.key("labels");
        json.beginObject();
        for (const auto& [k, v] : snap.labels) json.member(k, v);
        json.endObject();
        switch (snap.kind) {
        case MetricKind::Counter:
            json.member("value", snap.count);
            break;
        case MetricKind::Gauge:
            json.member("value", snap.value);
            break;
        case MetricKind::Histogram:
            json.member("count", snap.count);
            json.member("sum", snap.sum);
            json.member("mean", snap.value);
            json.key("buckets");
            json.beginArray();
            for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
                if (snap.buckets[b] == 0) continue;
                json.beginObject();
                json.member("low", histogramBucketLow(b));
                json.member("count", snap.buckets[b]);
                json.endObject();
            }
            json.endArray();
            break;
        }
        json.endObject();
    }
    json.endArray();
}

std::string metricsToJson(const std::vector<MetricSnapshot>& snapshot) {
    JsonWriter json;
    writeMetrics(json, snapshot);
    return json.str();
}

} // namespace voltcache::obs
