// Labelled metrics registry with a near-zero-overhead handle API.
//
// Design: acquiring a handle (Counter/Gauge/Histogram) resolves the metric
// family once under a lock and hands back a pointer to a per-thread cell;
// every subsequent update is a single relaxed atomic on that cell — no map
// lookup, no shared cache line with other threads. snapshot() merges the
// per-thread shards, so the parallel Monte Carlo sweep records metrics
// without cross-thread contention on the hot path.
//
// Counters and histograms shard per thread (sums merge); a gauge is a single
// shared cell (last writer wins — merging per-thread "current values" has no
// meaningful semantics). A thread that exits hands its shard index to the
// next new thread, which keeps adding to the same cells: a daemon whose
// sweeps start fresh workers for every job keeps one cell per family per
// live thread, not one per thread it ever ran.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace voltcache::obs {

/// Metric labels as ordered key/value pairs, e.g. {{"scheme","ffw+bbr"},{"mv","400"}}.
using LabelList = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Histogram layout: bucket 0 holds value==0; bucket b>0 holds values with
/// bit_width(v)==b, i.e. v in [2^(b-1), 2^b). 64-bit values need 65 buckets.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index for a histogram observation.
[[nodiscard]] std::size_t histogramBucket(std::uint64_t value) noexcept;

/// Smallest value that lands in `bucket` (inverse of histogramBucket).
[[nodiscard]] std::uint64_t histogramBucketLow(std::size_t bucket) noexcept;

namespace detail {

struct CounterCell {
    std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
    std::atomic<double> value{0.0};
};

struct HistogramCell {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
};

} // namespace detail

/// Monotonic counter handle. Default-constructed handles are inert no-ops so
/// instrumentation can be optional (e.g. only when BBR placement is active).
class Counter {
public:
    Counter() = default;
    void add(std::uint64_t delta = 1) noexcept {
        if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
    }

private:
    friend class MetricsRegistry;
    explicit Counter(detail::CounterCell* cell) noexcept : cell_(cell) {}
    detail::CounterCell* cell_ = nullptr;
};

/// Point-in-time gauge handle (shared cell; last writer wins).
class Gauge {
public:
    Gauge() = default;
    void set(double value) noexcept {
        if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
    }
    /// Monotonic high-water mark: keep the larger of the current and new
    /// value (e.g. peak resident trace bytes across concurrent recorders).
    void setMax(double value) noexcept {
        if (cell_ == nullptr) return;
        double current = cell_->value.load(std::memory_order_relaxed);
        while (current < value && !cell_->value.compare_exchange_weak(
                                      current, value, std::memory_order_relaxed)) {
        }
    }

private:
    friend class MetricsRegistry;
    explicit Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}
    detail::GaugeCell* cell_ = nullptr;
};

/// Log2-bucketed histogram handle.
class Histogram {
public:
    Histogram() = default;
    void observe(std::uint64_t value) noexcept {
        if (cell_ == nullptr) return;
        cell_->buckets[histogramBucket(value)].fetch_add(1, std::memory_order_relaxed);
        cell_->count.fetch_add(1, std::memory_order_relaxed);
        cell_->sum.fetch_add(value, std::memory_order_relaxed);
    }

private:
    friend class MetricsRegistry;
    explicit Histogram(detail::HistogramCell* cell) noexcept : cell_(cell) {}
    detail::HistogramCell* cell_ = nullptr;
};

/// Merged view of one metric family at snapshot time.
struct MetricSnapshot {
    std::string name;
    LabelList labels;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t count = 0;              ///< counter value / histogram sample count
    double value = 0.0;                   ///< gauge value / histogram mean
    std::uint64_t sum = 0;                ///< histogram sum of observations
    std::vector<std::uint64_t> buckets;   ///< histogram log2 buckets (trimmed)
};

/// A snapshot stamped with the steady clock, so two of them turn cumulative
/// counters into rates (legs/s, faults/s) without scrapers re-deriving dt.
struct TimedMetricsSnapshot {
    std::uint64_t monotonicNs = 0;        ///< steady_clock at snapshot time
    std::vector<MetricSnapshot> metrics;
};

/// Per-family rate between two timed snapshots (counters and histogram
/// sample counts; gauges have no meaningful rate and are skipped).
struct MetricRate {
    std::string name;
    LabelList labels;
    std::uint64_t delta = 0; ///< count increase from prev to now
    double perSec = 0.0;     ///< delta / elapsed seconds
};

/// Rates for every counter/histogram family present in `now`. Families
/// absent from `prev` rate from zero; a counter that went backwards (e.g.
/// prev from another registry) clamps to zero rather than going negative.
[[nodiscard]] std::vector<MetricRate> metricsDelta(const TimedMetricsSnapshot& prev,
                                                   const TimedMetricsSnapshot& now);

class MetricsRegistry {
public:
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Resolve a handle bound to the calling thread's cell for this family.
    /// Re-resolving from the same thread returns the same cell, so handle
    /// churn does not grow memory. Kind mismatches on an existing family are
    /// contract violations.
    [[nodiscard]] Counter counter(std::string_view name, const LabelList& labels = {});
    [[nodiscard]] Gauge gauge(std::string_view name, const LabelList& labels = {});
    [[nodiscard]] Histogram histogram(std::string_view name, const LabelList& labels = {});

    /// One-shot conveniences for cold paths (lock + lookup per call).
    void add(std::string_view name, const LabelList& labels, std::uint64_t delta = 1);
    void set(std::string_view name, const LabelList& labels, double value);
    void observe(std::string_view name, const LabelList& labels, std::uint64_t value);

    /// Merge all per-thread shards into a deterministic (name, labels)-sorted
    /// list. Concurrent updates are tolerated (relaxed reads).
    [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

    /// snapshot() stamped with the steady clock.
    [[nodiscard]] TimedMetricsSnapshot snapshotTimed() const;

    /// Rates since `prev`, advancing `prev` to the fresh snapshot — the
    /// exporter's scrape-to-scrape delta in one call.
    [[nodiscard]] std::vector<MetricRate> snapshotDelta(TimedMetricsSnapshot& prev) const;

    /// Per-thread counter and histogram cells across all families (memory
    /// diagnostics).
    [[nodiscard]] std::size_t cells() const;

    /// Process-wide registry used by the built-in instrumentation.
    [[nodiscard]] static MetricsRegistry& global();

private:
    struct Family;
    Family& familyFor(std::string_view name, const LabelList& labels, MetricKind kind);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Family>> families_;
};

/// Render a snapshot as a JSON array (one object per family).
[[nodiscard]] std::string metricsToJson(const std::vector<MetricSnapshot>& snapshot);

} // namespace voltcache::obs

namespace voltcache {
class JsonWriter;
namespace obs {
/// Stream a snapshot into an existing writer (emits one array value).
void writeMetrics(JsonWriter& json, const std::vector<MetricSnapshot>& snapshot);
} // namespace obs
} // namespace voltcache
