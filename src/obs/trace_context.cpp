#include "obs/trace_context.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>

#include "common/hash.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace voltcache::obs {

namespace {

std::uint64_t wallNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::uint64_t steadyNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t loadU64(const Digest256& digest, std::size_t offset) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(digest[offset + i]) << (8 * i);
    }
    return value;
}

void appendHex64(std::string& out, std::uint64_t value) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4) {
        out.push_back(kHex[(value >> shift) & 0xF]);
    }
}

bool parseHex64(std::string_view hex, std::uint64_t& value) {
    if (hex.size() != 16) return false;
    std::uint64_t parsed = 0;
    for (const char c : hex) {
        std::uint64_t nibble = 0;
        if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') nibble = static_cast<std::uint64_t>(c - 'A' + 10);
        else return false;
        parsed = (parsed << 4) | nibble;
    }
    value = parsed;
    return true;
}

/// Process-current context. Mutex-guarded so a 192-bit context is never read
/// torn; the hot paths never reach here without first passing the
/// JobTraceStore::collecting() relaxed-load guard.
std::mutex g_currentMutex;
TraceContext g_current;

} // namespace

TraceContext makeRootContext(std::string_view label) {
    static std::atomic<std::uint64_t> counter{0};
    HashWriter hasher;
    hasher.str("voltcache.trace.root");
    hasher.str(label);
    hasher.u64(wallNs());
    hasher.u64(steadyNs());
    hasher.u64(static_cast<std::uint64_t>(::getpid()));
    hasher.u64(counter.fetch_add(1, std::memory_order_relaxed));
    const Digest256 digest = hasher.finish();
    TraceContext context;
    context.traceHi = loadU64(digest, 0);
    context.traceLo = loadU64(digest, 8);
    if (!context.valid()) context.traceLo = 1; // astronomically unlikely
    context.spanId = rootSpanId(context);
    return context;
}

std::uint64_t rootSpanId(const TraceContext& context) {
    HashWriter hasher;
    hasher.str("voltcache.trace.span0");
    hasher.u64(context.traceHi);
    hasher.u64(context.traceLo);
    const std::uint64_t id = loadU64(hasher.finish(), 0);
    return id == 0 ? 1 : id;
}

std::uint64_t childSpanId(const TraceContext& parent, std::uint64_t index) {
    HashWriter hasher;
    hasher.str("voltcache.trace.child");
    hasher.u64(parent.traceHi);
    hasher.u64(parent.traceLo);
    hasher.u64(parent.spanId);
    hasher.u64(index);
    const std::uint64_t id = loadU64(hasher.finish(), 0);
    return id == 0 ? 1 : id;
}

std::string traceIdHex(const TraceContext& context) {
    if (!context.valid()) return {};
    std::string out;
    out.reserve(32);
    appendHex64(out, context.traceHi);
    appendHex64(out, context.traceLo);
    return out;
}

std::string spanIdHex(std::uint64_t spanId) {
    std::string out;
    out.reserve(16);
    appendHex64(out, spanId);
    return out;
}

bool parseTraceIdHex(std::string_view hex, TraceContext& context) {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (hex.size() != 32 || !parseHex64(hex.substr(0, 16), hi) ||
        !parseHex64(hex.substr(16), lo)) {
        return false;
    }
    if ((hi | lo) == 0) return false;
    context.traceHi = hi;
    context.traceLo = lo;
    context.spanId = rootSpanId(context);
    return true;
}

TraceContext currentTraceContext() noexcept {
    const std::lock_guard<std::mutex> lock(g_currentMutex);
    return g_current;
}

void setCurrentTraceContext(const TraceContext& context) noexcept {
    const std::lock_guard<std::mutex> lock(g_currentMutex);
    g_current = context;
}

namespace {
/// One relaxed load on every span close — the collector's hot-path guard.
std::atomic<bool> g_collecting{false};
} // namespace

struct JobTraceStore::Impl {
    struct JobTrace {
        std::string job;
        std::string traceHex;
        TraceContext root;
        std::uint64_t epochNs = 0; ///< steady_clock at beginJob (trace t=0)
        bool open = false;
        std::vector<JobSpan> spans;
        std::uint64_t dropped = 0;
    };

    mutable std::mutex mutex;
    std::deque<JobTrace> jobs; ///< newest at the back
    std::atomic<std::uint64_t> dropped{0};
    Counter droppedCounter = MetricsRegistry::global().counter("trace.spans_dropped");
    Counter spanCounter = MetricsRegistry::global().counter("trace.spans");

    JobTrace* findOpenLocked(const TraceContext& context) {
        for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
            if (it->open && it->root.traceHi == context.traceHi &&
                it->root.traceLo == context.traceLo) {
                return &*it;
            }
        }
        return nullptr;
    }

    void refreshCollectingLocked() {
        bool any = false;
        for (const JobTrace& job : jobs) any = any || job.open;
        g_collecting.store(any, std::memory_order_relaxed);
    }
};

JobTraceStore::JobTraceStore() : impl_(new Impl) {}
JobTraceStore::~JobTraceStore() { delete impl_; }

JobTraceStore& JobTraceStore::global() {
    static JobTraceStore* store = new JobTraceStore(); // leaked: spans may
    return *store; // close during thread teardown after static destructors
}

bool JobTraceStore::collecting() noexcept {
    return g_collecting.load(std::memory_order_relaxed);
}

void JobTraceStore::beginJob(const std::string& job, const TraceContext& context) {
    if (!context.valid()) return;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl::JobTrace trace;
    trace.job = job;
    trace.traceHex = traceIdHex(context);
    trace.root = context;
    trace.epochNs = steadyNs();
    trace.open = true;
    impl_->jobs.push_back(std::move(trace));
    while (impl_->jobs.size() > kMaxJobs) impl_->jobs.pop_front();
    impl_->refreshCollectingLocked();
}

void JobTraceStore::endJob(const TraceContext& context) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (Impl::JobTrace* job = impl_->findOpenLocked(context)) job->open = false;
    impl_->refreshCollectingLocked();
}

void JobTraceStore::record(const TraceContext& context, const JobSpan& span) {
    if (!context.valid()) return;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl::JobTrace* job = impl_->findOpenLocked(context);
    if (job == nullptr) return;
    if (job->spans.size() >= kMaxSpansPerJob) {
        ++job->dropped;
        impl_->dropped.fetch_add(1, std::memory_order_relaxed);
        impl_->droppedCounter.add();
        return;
    }
    job->spans.push_back(span);
    impl_->spanCounter.add();
}

void JobTraceStore::recordLeg(const TraceContext& context, const LegEvent& finished) {
    JobSpan span;
    span.parentSpanId = context.spanId;
    span.event = finished;
    record(context, span);
}

void JobTraceStore::recordCurrent(const char* name, std::uint64_t startNs,
                                  std::uint64_t durationNs) {
    if (!collecting()) return;
    const TraceContext context = currentTraceContext();
    if (!context.valid()) return;
    JobSpan span;
    span.phase = name;
    span.parentSpanId = context.spanId;
    span.event.startNs = startNs;
    span.event.durationNs = durationNs;
    record(context, span);
}

namespace {

void writeSpanEvent(JsonWriter& json, const JobSpan& span, std::uint64_t epochNs) {
    const LegEvent& event = span.event;
    const bool leg = span.phase == nullptr;
    json.beginObject();
    if (leg) {
        json.member("name", "leg " + std::string(event.benchmark) + "/" + event.scheme + "@" +
                                std::to_string(event.voltageMv) + "mV#" +
                                std::to_string(event.trial));
        json.member("cat", event.cached ? "leg,cached" : "leg");
    } else {
        json.member("name", span.phase);
        json.member("cat", "phase");
    }
    json.member("ph", "X");
    const std::uint64_t rel = event.startNs > epochNs ? event.startNs - epochNs : 0;
    json.member("ts", static_cast<double>(rel) * 1e-3);
    // Store hits are zero-cost on the timeline: the leg did no simulation.
    // The actual lookup wall time survives in args.wallNs.
    json.member("dur", event.cached ? 0.0 : static_cast<double>(event.durationNs) * 1e-3);
    json.member("pid", 1);
    json.member("tid", static_cast<std::uint64_t>(event.worker));
    json.key("args");
    json.beginObject();
    if (event.spanId != 0) json.member("span", spanIdHex(event.spanId));
    if (span.parentSpanId != 0) json.member("parent", spanIdHex(span.parentSpanId));
    if (leg) {
        json.member("benchmark", std::string_view(event.benchmark));
        json.member("scheme", std::string_view(event.scheme));
        json.member("mv", static_cast<std::int64_t>(event.voltageMv));
        json.member("trial", event.trial);
        json.member("replayed", event.replayed);
        json.member("cached", event.cached);
        if (event.cached) json.member("wallNs", event.durationNs);
        if (event.linkFailed) json.member("linkFailed", true);
    }
    json.endObject();
    json.endObject();
}

} // namespace

std::string JobTraceStore::toChromeJson(std::string_view jobOrTraceId) const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl::JobTrace* found = nullptr;
    for (auto it = impl_->jobs.rbegin(); it != impl_->jobs.rend(); ++it) {
        if (it->job == jobOrTraceId || it->traceHex == jobOrTraceId) {
            found = &*it;
            break;
        }
    }
    if (found == nullptr) return {};
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "trace");
    json.member("job", found->job);
    json.member("trace", found->traceHex);
    json.member("open", found->open);
    json.member("spanCount", static_cast<std::uint64_t>(found->spans.size()));
    json.member("droppedSpans", found->dropped);
    json.member("displayTimeUnit", "ms");
    json.key("traceEvents");
    json.beginArray();
    for (const JobSpan& span : found->spans) {
        writeSpanEvent(json, span, found->epochNs);
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string JobTraceStore::indexJson() const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "traceIndex");
    json.key("jobs");
    json.beginArray();
    for (auto it = impl_->jobs.rbegin(); it != impl_->jobs.rend(); ++it) {
        json.beginObject();
        json.member("job", it->job);
        json.member("trace", it->traceHex);
        json.member("open", it->open);
        json.member("spans", static_cast<std::uint64_t>(it->spans.size()));
        json.member("droppedSpans", it->dropped);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::uint64_t JobTraceStore::dropped() const noexcept {
    return impl_->dropped.load(std::memory_order_relaxed);
}

void JobTraceStore::clear() {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->jobs.clear();
    impl_->refreshCollectingLocked();
}

} // namespace voltcache::obs
