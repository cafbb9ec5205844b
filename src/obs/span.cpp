#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace voltcache::obs {
namespace {

std::atomic<bool> g_profilingEnabled{false};

std::uint64_t nowNs() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Agg {
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/// One thread's profiler shard. The owner thread mutates `top` and the
/// registry-handle cache without locking (they are thread-confined, like the
/// metrics registry's per-thread cells); `aggregates` is mutex-guarded so
/// snapshot()/reset() can read shards of live threads.
struct ThreadShard {
    std::mutex mutex;
    Span* top = nullptr; ///< owner thread only
    std::map<std::string, Agg, std::less<>> aggregates; ///< guarded by mutex
    std::map<const void*, Histogram> registryHandles;   ///< owner thread only
};

struct ShardRegistry {
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadShard>> shards;
    std::map<std::string, Agg, std::less<>> retired; ///< folded shards of exited threads

    static ShardRegistry& instance() {
        static ShardRegistry* registry = new ShardRegistry(); // leaked: spans may
        return *registry; // close during thread teardown after static dtors
    }
};

void addInto(Agg& into, const Agg& agg) {
    into.count += agg.count;
    into.totalNs += agg.totalNs;
    into.selfNs += agg.selfNs;
}

/// The calling thread's registered shard. At thread exit its aggregates
/// fold into the registry's retired totals and the shard is dropped, so a
/// daemon whose sweeps start fresh workers per job keeps one shard per
/// live thread.
struct ShardLease {
    std::shared_ptr<ThreadShard> shard = std::make_shared<ThreadShard>();

    ShardLease() {
        ShardRegistry& registry = ShardRegistry::instance();
        const std::lock_guard<std::mutex> lock(registry.mutex);
        registry.shards.push_back(shard);
    }
    ShardLease(const ShardLease&) = delete;
    ShardLease& operator=(const ShardLease&) = delete;
    ~ShardLease() {
        ShardRegistry& registry = ShardRegistry::instance();
        const std::lock_guard<std::mutex> lock(registry.mutex);
        {
            const std::lock_guard<std::mutex> shardLock(shard->mutex);
            for (const auto& [name, agg] : shard->aggregates) {
                addInto(registry.retired[name], agg);
            }
        }
        std::erase(registry.shards, shard);
    }
};

ThreadShard& threadShard() {
    thread_local const ShardLease lease;
    return *lease.shard;
}

} // namespace

bool Profiler::enabled() noexcept {
    return g_profilingEnabled.load(std::memory_order_relaxed);
}

void Profiler::setEnabled(bool on) noexcept {
    g_profilingEnabled.store(on, std::memory_order_relaxed);
}

std::vector<SpanStat> Profiler::snapshot() {
    std::map<std::string, Agg> merged;
    {
        ShardRegistry& registry = ShardRegistry::instance();
        const std::lock_guard<std::mutex> registryLock(registry.mutex);
        merged.insert(registry.retired.begin(), registry.retired.end());
        for (const auto& shard : registry.shards) {
            const std::lock_guard<std::mutex> shardLock(shard->mutex);
            for (const auto& [name, agg] : shard->aggregates) addInto(merged[name], agg);
        }
    }
    std::vector<SpanStat> out;
    out.reserve(merged.size());
    for (const auto& [name, agg] : merged) {
        out.push_back(SpanStat{name, agg.count, agg.totalNs, agg.selfNs});
    }
    return out;
}

void Profiler::reset() {
    ShardRegistry& registry = ShardRegistry::instance();
    const std::lock_guard<std::mutex> registryLock(registry.mutex);
    registry.retired.clear();
    for (const auto& shard : registry.shards) {
        const std::lock_guard<std::mutex> shardLock(shard->mutex);
        shard->aggregates.clear();
    }
}

Span::Span(const char* name) noexcept {
    if (flightRecorderArmed()) flight_ = flightSpanEnter(name);
    if (!g_profilingEnabled.load(std::memory_order_relaxed)) return;
    name_ = name;
    ThreadShard& shard = threadShard();
    parent_ = shard.top;
    shard.top = this;
    startNs_ = nowNs();
}

Span::~Span() {
    if (flight_) flightSpanExit();
    if (name_ == nullptr) return;
    const std::uint64_t end = nowNs();
    const std::uint64_t total = end > startNs_ ? end - startNs_ : 0;
    const std::uint64_t self = total > childNs_ ? total - childNs_ : 0;
    ThreadShard& shard = threadShard();
    shard.top = parent_;
    if (parent_ != nullptr) parent_->childNs_ += total;
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        Agg& agg = shard.aggregates[name_];
        ++agg.count;
        agg.totalNs += total;
        agg.selfNs += self;
    }
    // Feed the sharded registry: one log2 histogram per span name, handle
    // cached per thread so repeated spans never re-resolve under the lock.
    auto it = shard.registryHandles.find(static_cast<const void*>(name_));
    if (it == shard.registryHandles.end()) {
        it = shard.registryHandles
                 .emplace(static_cast<const void*>(name_),
                          MetricsRegistry::global().histogram("prof.span_ns",
                                                              {{"span", name_}}))
                 .first;
    }
    it->second.observe(total);
    if (TraceSink* sink = traceSink()) {
        sink->recordSpan(name_, "prof", startNs_, total);
    }
    if (JobTraceStore::collecting()) {
        JobTraceStore::global().recordCurrent(name_, startNs_, total);
    }
}

} // namespace voltcache::obs
