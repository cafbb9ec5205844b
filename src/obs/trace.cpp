#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>

#include "common/contracts.h"
#include "common/json.h"
#include "obs/clock.h"

namespace voltcache::obs {
namespace {

/// What the current job collects: one relaxed load on every trace point.
enum Collecting : std::uint8_t { kNothing, kSpans, kSpansAndInstants };
std::atomic<std::uint8_t> g_collecting{kNothing};

const char* phaseLetter(TracePhase phase) noexcept {
    switch (phase) {
    case TracePhase::Instant: return "i";
    case TracePhase::Counter: return "C";
    case TracePhase::Span:
    case TracePhase::Leg: return "X";
    }
    return "i";
}

/// One event of a job's document. X events name their span and the job's
/// root span as parent; a cached leg did no simulation, so it is zero-cost
/// on the timeline and keeps its store-lookup wall time in args.wallNs.
void writeEvent(JsonWriter& json, const TraceEvent& event, std::uint64_t epochNs,
                std::uint64_t rootSpanId) {
    const bool leg = event.phase == TracePhase::Leg;
    json.beginObject();
    if (leg) {
        const TraceLeg& l = event.leg;
        json.member("name", "leg " + std::string(l.benchmark) + "/" + l.scheme + "@" +
                                std::to_string(l.voltageMv) + "mV#" + std::to_string(l.trial));
        json.member("cat", l.cached ? "leg,cached" : "leg");
    } else {
        json.member("name", event.name);
        json.member("cat", event.category);
    }
    json.member("ph", phaseLetter(event.phase));
    if (event.phase == TracePhase::Instant) json.member("s", "t"); // thread-scoped
    const std::uint64_t rel = event.startNs > epochNs ? event.startNs - epochNs : 0;
    json.member("ts", static_cast<double>(rel) / 1e3);
    if (event.phase == TracePhase::Span || leg) {
        const bool zeroCost = leg && event.leg.cached;
        json.member("dur", zeroCost ? 0.0 : static_cast<double>(event.durationNs) / 1e3);
    }
    json.member("pid", 1);
    json.member("tid", event.tid);
    json.key("args");
    json.beginObject();
    if (leg) {
        const TraceLeg& l = event.leg;
        if (l.spanId != 0) json.member("span", spanIdHex(l.spanId));
        json.member("parent", spanIdHex(rootSpanId));
        json.member("benchmark", std::string_view(l.benchmark));
        json.member("scheme", std::string_view(l.scheme));
        json.member("mv", static_cast<std::int64_t>(l.voltageMv));
        json.member("trial", l.trial);
        json.member("worker", l.worker);
        json.member("replayed", l.replayed);
        json.member("cached", l.cached);
        if (l.cached) json.member("wallNs", event.durationNs);
        if (l.linkFailed) json.member("linkFailed", true);
    } else {
        if (event.phase == TracePhase::Span) json.member("parent", spanIdHex(rootSpanId));
        for (std::size_t i = 0; i < event.argCount; ++i) {
            json.member(event.args[i].key, event.args[i].value);
        }
    }
    json.endObject();
    json.endObject();
}

} // namespace

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity),
      droppedTotal_(MetricsRegistry::global().counter("obs.trace_dropped_total")) {
    VC_EXPECTS(capacity > 0);
}

TraceEvent& TraceRing::claim() {
    const std::uint64_t seq = next_++;
    if (slots_.size() < capacity_) return slots_.emplace_back();
    droppedTotal_.add(); // the oldest event is about to become unrecoverable
    return slots_[seq % capacity_];
}

std::vector<TraceEvent> TraceRing::events() const {
    if (slots_.size() < capacity_) return slots_;
    // The slot for claim number `next_` holds the oldest event.
    const auto head = static_cast<std::ptrdiff_t>(next_ % capacity_);
    std::vector<TraceEvent> out;
    out.reserve(slots_.size());
    out.insert(out.end(), slots_.begin() + head, slots_.end());
    out.insert(out.end(), slots_.begin(), slots_.begin() + head);
    return out;
}

struct JobTraceStore::Impl {
    struct Job {
        std::string label;
        std::string traceHex;
        TraceContext root;
        std::uint64_t epochNs = 0; ///< steadyNowNs() at beginJob (the timeline's t=0)
        bool open = true;
        bool instants = false;
        TraceRing ring;
    };

    mutable std::mutex mutex;
    std::deque<Job> jobs; ///< newest at the back
    Job* current = nullptr; ///< newest open job

    /// Re-point `current` at the newest open job and publish what it collects.
    void refreshCurrentLocked() {
        const auto it = std::find_if(jobs.rbegin(), jobs.rend(),
                                     [](const Job& job) { return job.open; });
        current = it == jobs.rend() ? nullptr : &*it;
        g_collecting.store(current == nullptr ? kNothing
                           : current->instants ? kSpansAndInstants
                                               : kSpans,
                           std::memory_order_relaxed);
    }

    const Job* findLocked(std::string_view jobOrTraceId) const {
        const auto it = std::find_if(jobs.rbegin(), jobs.rend(), [&](const Job& job) {
            return job.label == jobOrTraceId || job.traceHex == jobOrTraceId;
        });
        return it == jobs.rend() ? nullptr : &*it;
    }
};

JobTraceStore::JobTraceStore() : impl_(new Impl) {}
JobTraceStore::~JobTraceStore() { delete impl_; }

JobTraceStore& JobTraceStore::global() {
    static JobTraceStore* store = new JobTraceStore(); // leaked: spans may
    return *store; // close during thread teardown after static destructors
}

bool JobTraceStore::collecting() noexcept {
    return g_collecting.load(std::memory_order_relaxed) != kNothing;
}

void JobTraceStore::beginJob(const std::string& job, const TraceContext& context,
                             bool instants) {
    if (!context.valid()) return;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->jobs.push_back(Impl::Job{job, traceIdHex(context), context, steadyNowNs(), true,
                                    instants,
                                    TraceRing(instants ? kMaxEventsWithInstants
                                                       : kMaxSpansPerJob)});
    while (impl_->jobs.size() > kMaxJobs) impl_->jobs.pop_front();
    impl_->refreshCurrentLocked();
}

void JobTraceStore::endJob(const TraceContext& context) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    for (Impl::Job& job : impl_->jobs) {
        if (job.root.traceHi == context.traceHi && job.root.traceLo == context.traceLo) {
            job.open = false;
        }
    }
    impl_->refreshCurrentLocked();
}

// Both record paths fill the claimed slot in place: building an event on
// the stack and copying it in costs an armed trace point about half again.
void JobTraceStore::record(TracePhase phase, const char* name, const char* category,
                           std::uint64_t startNs, std::uint64_t durationNs,
                           std::initializer_list<TraceArg> args) {
    const std::uint32_t tid = threadSlot();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->current == nullptr) return;
    TraceEvent& event = impl_->current->ring.claim();
    if (event.phase == TracePhase::Leg) event.args = {}; // the slot held a leg: switch members
    event.name = name;
    event.category = category;
    event.startNs = startNs;
    event.durationNs = durationNs;
    event.tid = tid;
    event.phase = phase;
    event.argCount = static_cast<std::uint8_t>(std::min(args.size(), kMaxTraceArgs));
    std::copy_n(args.begin(), event.argCount, event.args.begin());
}

void JobTraceStore::recordLeg(const LegEvent& finished) {
    const std::uint32_t tid = threadSlot();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->current == nullptr) return;
    TraceEvent& event = impl_->current->ring.claim();
    event.startNs = finished.startNs;
    event.durationNs = finished.durationNs;
    event.tid = tid;
    event.phase = TracePhase::Leg;
    event.leg = TraceLeg{finished.spanId, {}, {}, finished.voltageMv, finished.trial,
                         finished.worker, finished.replayed, finished.cached,
                         finished.linkFailed};
    std::memcpy(event.leg.benchmark, finished.benchmark, sizeof(event.leg.benchmark));
    std::memcpy(event.leg.scheme, finished.scheme, sizeof(event.leg.scheme));
}

std::string JobTraceStore::toChromeJson(std::string_view jobOrTraceId) const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl::Job* job = impl_->findLocked(jobOrTraceId);
    if (job == nullptr) return {};
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "trace");
    json.member("job", job->label);
    json.member("trace", job->traceHex);
    json.member("open", job->open);
    json.member("spanCount", static_cast<std::uint64_t>(job->ring.size()));
    json.member("droppedSpans", job->ring.dropped());
    json.member("displayTimeUnit", "ms");
    json.key("traceEvents");
    json.beginArray();
    for (const TraceEvent& event : job->ring.events()) {
        writeEvent(json, event, job->epochNs, job->root.spanId);
    }
    json.endArray();
    json.endObject();
    return json.str();
}

JobTraceStore::RingCounts JobTraceStore::ringCounts(std::string_view jobOrTraceId) const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl::Job* job = impl_->findLocked(jobOrTraceId);
    if (job == nullptr) return {};
    return {job->ring.size(), job->ring.dropped()};
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
        json.member("job", it->label);
        json.member("trace", it->traceHex);
        json.member("open", it->open);
        json.member("spans", static_cast<std::uint64_t>(it->ring.size()));
        json.member("droppedSpans", it->ring.dropped());
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

void JobTraceStore::clear() {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->jobs.clear();
    impl_->refreshCurrentLocked();
}

bool instantEventsOn() noexcept {
    return g_collecting.load(std::memory_order_relaxed) == kSpansAndInstants;
}

void traceInstant(const char* name, const char* category,
                  std::initializer_list<TraceArg> args) {
    if (!instantEventsOn()) return;
    JobTraceStore::global().record(TracePhase::Instant, name, category, steadyNowNs(), 0, args);
}

void traceSpan(const char* name, const char* category, std::uint64_t startNs,
               std::uint64_t durationNs, std::initializer_list<TraceArg> args) {
    if (!JobTraceStore::collecting()) return;
    JobTraceStore::global().record(TracePhase::Span, name, category, startNs, durationNs, args);
}

void traceCounter(const char* name, const char* category,
                  std::initializer_list<TraceArg> args) {
    if (!JobTraceStore::collecting()) return;
    JobTraceStore::global().record(TracePhase::Counter, name, category, steadyNowNs(), 0, args);
}

} // namespace voltcache::obs
