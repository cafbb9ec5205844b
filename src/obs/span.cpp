#include "obs/span.h"

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace voltcache::obs {
namespace {

std::atomic<bool> g_profilingEnabled{false};

constexpr const char* kTotalFamily = "prof.span_ns";     ///< count + totalNs
constexpr const char* kSelfFamily = "prof.span_self_ns"; ///< selfNs

thread_local Span* t_top = nullptr; ///< innermost open profiled span

/// The calling thread's registry handles for one span name.
struct SpanHandles {
    Histogram total;
    Counter self;
};

/// Handles cached per thread by name pointer, so repeated spans never
/// re-resolve under the registry's lock.
SpanHandles& spanHandles(const char* name) {
    thread_local std::map<const void*, SpanHandles> handles;
    auto it = handles.find(static_cast<const void*>(name));
    if (it == handles.end()) {
        MetricsRegistry& registry = MetricsRegistry::global();
        const LabelList labels{{"span", name}};
        it = handles
                 .emplace(static_cast<const void*>(name),
                          SpanHandles{registry.histogram(kTotalFamily, labels),
                                      registry.counter(kSelfFamily, labels)})
                 .first;
    }
    return it->second;
}

/// Every span name's registry totals, name-sorted.
std::map<std::string, SpanStat> registryTotals() {
    std::map<std::string, SpanStat> totals;
    for (const MetricSnapshot& metric : MetricsRegistry::global().snapshot()) {
        const bool total = metric.name == kTotalFamily;
        if (!total && metric.name != kSelfFamily) continue;
        if (metric.labels.size() != 1 || metric.labels[0].first != "span") continue;
        SpanStat& stat = totals[metric.labels[0].second];
        if (total) {
            stat.count = metric.count;
            stat.totalNs = metric.sum;
        } else {
            stat.selfNs = metric.count;
        }
    }
    return totals;
}

/// The registry totals at the last reset(); snapshot() reports what grew since.
std::mutex g_baselineMutex;
std::map<std::string, SpanStat> g_baseline;

} // namespace

bool Profiler::enabled() noexcept {
    return g_profilingEnabled.load(std::memory_order_relaxed);
}

void Profiler::setEnabled(bool on) noexcept {
    g_profilingEnabled.store(on, std::memory_order_relaxed);
}

// Both read the registry under the baseline lock, so a snapshot never
// subtracts a baseline newer than its totals.
std::vector<SpanStat> Profiler::snapshot() {
    const std::lock_guard<std::mutex> lock(g_baselineMutex);
    std::map<std::string, SpanStat> totals = registryTotals();
    std::vector<SpanStat> out;
    out.reserve(totals.size());
    for (auto& [name, stat] : totals) {
        if (const auto base = g_baseline.find(name); base != g_baseline.end()) {
            stat.count -= base->second.count;
            stat.totalNs -= base->second.totalNs;
            stat.selfNs -= base->second.selfNs;
        }
        if (stat.count == 0) continue;
        stat.name = name;
        out.push_back(std::move(stat));
    }
    return out;
}

void Profiler::reset() {
    const std::lock_guard<std::mutex> lock(g_baselineMutex);
    g_baseline = registryTotals();
}

Span::Span(const char* name) noexcept {
    if (flightRecorderArmed()) flight_ = flightSpanEnter(name);
    if (!g_profilingEnabled.load(std::memory_order_relaxed)) return;
    name_ = name;
    parent_ = t_top;
    t_top = this;
    // Hold the thread's slot (its timeline track) from the start stamp on:
    // a slot claimed only at close could still be a just-exited thread's.
    (void)threadSlot();
    startNs_ = steadyNowNs();
}

Span::~Span() {
    if (flight_) flightSpanExit();
    if (name_ != nullptr) close();
}

// Out of line, so a disabled span's destructor stays a test and a return
// rather than paying this body's prologue (BM_SpanDisabled).
[[gnu::noinline]] void Span::close() noexcept {
    const std::uint64_t end = steadyNowNs();
    const std::uint64_t total = end > startNs_ ? end - startNs_ : 0;
    const std::uint64_t self = total > childNs_ ? total - childNs_ : 0;
    t_top = parent_;
    if (parent_ != nullptr) parent_->childNs_ += total;
    SpanHandles& handles = spanHandles(name_);
    handles.total.observe(total);
    handles.self.add(self);
    traceSpan(name_, "phase", startNs_, total); // into the current job's timeline
}

} // namespace voltcache::obs
