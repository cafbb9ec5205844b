#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "common/contracts.h"
#include "common/json.h"
#include "obs/clock.h"

namespace voltcache::obs {
namespace {

/// What the current job collects, in the low two bits of g_current; the
/// rest is the current job's serial. One relaxed load on every trace point.
enum Collecting : std::uint8_t { kNothing, kSpans, kSpansAndInstants };
std::atomic<std::uint64_t> g_current{kNothing};

Collecting collectingOf(std::uint64_t current) noexcept { return Collecting(current & 3); }

/// One slot's rings and its counts. Only the slot's owner writes them, but
/// beginJob zeroes a new job's counts.
struct SlotRings {
    std::array<std::atomic<EventRing*>, kTraceLanes> lanes{};
    /// Timeline and instant events recorded per job, for its droppedSpans,
    /// at `serial % kMaxJobs`: the store keeps the newest kMaxJobs serials.
    std::array<std::atomic<std::uint64_t>, JobTraceStore::kMaxJobs> jobEvents{};
};

SlotRings g_slots[kMaxThreadSlots];
std::atomic<std::uint64_t> g_legEventsWithoutRing{0};

constexpr std::size_t kLaneEvents[kTraceLanes] = {kTimelineLaneEvents, kLegLaneEvents,
                                                  kInstantLaneEvents};

/// Push `event` into the calling thread's `lane`, allocated on its first
/// event, and count it for its job. A thread past kMaxThreadSlots records
/// nothing; a leg event counts as lost.
void record(const TraceEvent& event, TraceLane lane) {
    const std::uint32_t slot = threadSlot();
    if (slot >= kMaxThreadSlots) {
        if (lane == TraceLane::Legs) g_legEventsWithoutRing.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    SlotRings& rings = g_slots[slot];
    std::atomic<EventRing*>& cell = rings.lanes[static_cast<std::size_t>(lane)];
    EventRing* ring = cell.load(std::memory_order_relaxed); // only the owner stores
    if (ring == nullptr) {
        // Never freed: readers may hold it, and the slot's next owner reuses it.
        ring = new EventRing(kLaneEvents[static_cast<std::size_t>(lane)]);
        cell.store(ring, std::memory_order_release);
    }
    ring->push(event);
    if (event.job != 0) {
        std::atomic<std::uint64_t>& events = rings.jobEvents[event.job % JobTraceStore::kMaxJobs];
        events.store(events.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    }
}

/// Record a span, counter or instant event into the current job, if it
/// still collects at least `needs`.
void recordCurrent(Collecting needs, TracePhase phase, const char* name, const char* category,
                   std::uint64_t startNs, std::uint64_t durationNs,
                   std::initializer_list<TraceArg> args) {
    const std::uint64_t current = g_current.load(std::memory_order_relaxed);
    if (collectingOf(current) < needs) return;
    TraceEvent event;
    event.job = static_cast<std::uint32_t>(current >> 2);
    event.phase = phase;
    event.argCount = static_cast<std::uint8_t>(std::min(args.size(), kMaxTraceArgs));
    event.point = TracePoint{name, category, startNs, durationNs, {}};
    std::copy_n(args.begin(), event.argCount, event.point.args.begin());
    record(event, phase == TracePhase::Instant ? TraceLane::Instants : TraceLane::Timeline);
}

std::uint64_t startOf(const TraceEvent& event) noexcept {
    return event.phase == TracePhase::Leg ? event.leg.startNs : event.point.startNs;
}

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
void writeEvent(JsonWriter& json, const TraceEvent& event, std::uint32_t tid,
                std::uint64_t epochNs, std::uint64_t rootSpanId) {
    const bool leg = event.phase == TracePhase::Leg;
    const LegEvent& l = event.leg;
    const TracePoint& point = event.point;
    json.beginObject();
    if (leg) {
        json.member("name", "leg " + std::string(l.benchmark) + "/" + l.scheme + "@" +
                                std::to_string(l.voltageMv) + "mV#" + std::to_string(l.trial));
        json.member("cat", l.cached ? "leg,cached" : "leg");
    } else {
        json.member("name", point.name);
        json.member("cat", point.category);
    }
    json.member("ph", phaseLetter(event.phase));
    if (event.phase == TracePhase::Instant) json.member("s", "t"); // thread-scoped
    const std::uint64_t start = startOf(event);
    json.member("ts", static_cast<double>(start > epochNs ? start - epochNs : 0) / 1e3);
    const std::uint64_t durationNs = leg ? l.durationNs : point.durationNs;
    if (event.phase == TracePhase::Span || leg) {
        json.member("dur", leg && l.cached ? 0.0 : static_cast<double>(durationNs) / 1e3);
    }
    json.member("pid", 1);
    json.member("tid", tid);
    json.key("args");
    json.beginObject();
    if (leg) {
        if (l.spanId != 0) json.member("span", spanIdHex(l.spanId));
        json.member("parent", spanIdHex(rootSpanId));
        json.member("benchmark", std::string_view(l.benchmark));
        json.member("scheme", std::string_view(l.scheme));
        json.member("mv", static_cast<std::int64_t>(l.voltageMv));
        json.member("trial", l.trial);
        json.member("worker", l.worker);
        json.member("replayed", l.replayed);
        json.member("cached", l.cached);
        if (l.cached) json.member("wallNs", durationNs);
        if (l.linkFailed) json.member("linkFailed", true);
    } else {
        if (event.phase == TracePhase::Span) json.member("parent", spanIdHex(rootSpanId));
        for (std::size_t i = 0; i < event.argCount; ++i) {
            json.member(point.args[i].key, point.args[i].value);
        }
    }
    json.endObject();
    json.endObject();
}

/// Call `visit(slot, event)` for every event of a job that the timeline and
/// instant lanes hold.
template <class Visit>
void forEachTimelineEvent(Visit&& visit) {
    TraceEvent event;
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        for (const TraceLane lane : {TraceLane::Timeline, TraceLane::Instants}) {
            const EventRing* ring = eventRing(slot, lane);
            if (ring == nullptr) continue;
            const std::uint64_t recorded = ring->recorded();
            for (std::uint64_t i = ring->oldest(recorded); i < recorded; ++i) {
                if (ring->read(i, event) && event.job != 0) visit(slot, event);
            }
        }
    }
}

/// Job `serial`'s timeline events the rings no longer hold, given the
/// `kept` ones they do.
std::uint64_t droppedForJob(std::uint32_t serial, std::uint64_t kept) noexcept {
    const std::size_t entry = serial % JobTraceStore::kMaxJobs;
    std::uint64_t recorded = 0;
    for (const SlotRings& rings : g_slots) {
        recorded += rings.jobEvents[entry].load(std::memory_order_relaxed);
    }
    return recorded > kept ? recorded - kept : 0;
}

} // namespace

EventRing::EventRing(std::size_t capacity)
    : slots_(new Slot[capacity]),
      mask_(capacity - 1),
      droppedTotal_(MetricsRegistry::global().counter("obs.trace_dropped_total")) {
    VC_EXPECTS(std::has_single_bit(capacity));
}

// Release stores throughout: a reader that sees any word of a newer event
// also sees the cleared stamp, so its re-check fails.
void EventRing::push(const TraceEvent& event) noexcept {
    const std::uint64_t index = recorded_.load(std::memory_order_relaxed);
    Slot& slot = slots_[index & mask_];
    if (index > mask_) droppedTotal_.add(); // the oldest event is about to become unrecoverable
    std::array<std::uint64_t, kWords> words; // memcpy, not bit_cast: the event has padding
    std::memcpy(words.data(), &event, sizeof event);
    slot.stamp.store(0, std::memory_order_relaxed);
    for (std::size_t w = 0; w < kWords; ++w) {
        slot.words[w].store(words[w], std::memory_order_release);
    }
    slot.stamp.store(index + 1, std::memory_order_release);
    recorded_.store(index + 1, std::memory_order_release);
}

bool EventRing::read(std::uint64_t index, TraceEvent& out) const noexcept {
    const Slot& slot = slots_[index & mask_];
    if (slot.stamp.load(std::memory_order_acquire) != index + 1) return false;
    std::array<std::uint64_t, kWords> words;
    for (std::size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.stamp.load(std::memory_order_relaxed) != index + 1) return false;
    std::memcpy(static_cast<void*>(&out), words.data(), sizeof out); // trivially copyable
    return true;
}

const EventRing* eventRing(std::uint32_t slot, TraceLane lane) noexcept {
    if (slot >= kMaxThreadSlots) return nullptr;
    return g_slots[slot].lanes[static_cast<std::size_t>(lane)].load(std::memory_order_acquire);
}

void recordLegEvent(const LegEvent& event) {
    TraceEvent trace;
    trace.phase = TracePhase::Leg;
    trace.leg = event;
    trace.leg.timestampNs = steadyNowNs();
    record(trace, TraceLane::Legs);
}

void recordLegSpan(const LegEvent& finished, std::uint32_t job) {
    TraceEvent trace;
    trace.job = job;
    trace.phase = TracePhase::Leg;
    trace.leg = finished;
    record(trace, TraceLane::Timeline);
}

std::uint64_t legEventsWithoutRing() noexcept {
    return g_legEventsWithoutRing.load(std::memory_order_relaxed);
}

struct JobTraceStore::Impl {
    struct Job {
        std::string label;
        std::string traceHex;
        TraceContext root;
        std::uint64_t epochNs = 0; ///< steadyNowNs() at beginJob (the timeline's t=0)
        std::uint32_t serial = 0;
        bool open = true;
        bool instants = false;
    };

    mutable std::mutex mutex;
    std::deque<Job> jobs; ///< newest at the back
    std::uint32_t nextSerial = 1;

    /// Publish the newest open job and what it collects.
    void refreshCurrentLocked() {
        const auto it = std::find_if(jobs.rbegin(), jobs.rend(),
                                     [](const Job& job) { return job.open; });
        const std::uint64_t current =
            it == jobs.rend()
                ? std::uint64_t{kNothing}
                : std::uint64_t{it->serial} << 2 | (it->instants ? kSpansAndInstants : kSpans);
        g_current.store(current, std::memory_order_relaxed);
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
    return collectingOf(g_current.load(std::memory_order_relaxed)) != kNothing;
}

std::uint32_t JobTraceStore::beginJob(const std::string& job, const TraceContext& context,
                                      bool instants) {
    if (!context.valid()) return 0;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const std::uint32_t serial = impl_->nextSerial++;
    for (SlotRings& r : g_slots) r.jobEvents[serial % kMaxJobs].store(0, std::memory_order_relaxed);
    impl_->jobs.push_back(
        Impl::Job{job, traceIdHex(context), context, steadyNowNs(), serial, true, instants});
    while (impl_->jobs.size() > kMaxJobs) impl_->jobs.pop_front();
    impl_->refreshCurrentLocked();
    return serial;
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

std::string JobTraceStore::toChromeJson(std::string_view jobOrTraceId) const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl::Job* job = impl_->findLocked(jobOrTraceId);
    if (job == nullptr) return {};
    std::vector<std::pair<std::uint32_t, TraceEvent>> events; // (tid, event)
    forEachTimelineEvent([&](std::uint32_t slot, const TraceEvent& event) {
        if (event.job == job->serial) events.emplace_back(slot, event);
    });
    std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
        return startOf(a.second) < startOf(b.second);
    });
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "trace");
    json.member("job", job->label);
    json.member("trace", job->traceHex);
    json.member("open", job->open);
    json.member("spanCount", static_cast<std::uint64_t>(events.size()));
    json.member("droppedSpans", droppedForJob(job->serial, events.size()));
    json.member("displayTimeUnit", "ms");
    json.key("traceEvents");
    json.beginArray();
    for (const auto& [tid, event] : events) {
        writeEvent(json, event, tid, job->epochNs, job->root.spanId);
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string JobTraceStore::indexJson() const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    std::map<std::uint32_t, std::uint64_t> kept; // serial -> events held
    forEachTimelineEvent([&](std::uint32_t, const TraceEvent& event) { ++kept[event.job]; });
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
        json.member("spans", kept[it->serial]);
        json.member("droppedSpans", droppedForJob(it->serial, kept[it->serial]));
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
    return collectingOf(g_current.load(std::memory_order_relaxed)) == kSpansAndInstants;
}

// Each guard is one relaxed load, taken before the clock is read.
void traceInstant(const char* name, const char* category,
                  std::initializer_list<TraceArg> args) {
    if (!instantEventsOn()) return;
    recordCurrent(kSpansAndInstants, TracePhase::Instant, name, category, steadyNowNs(), 0, args);
}

void traceSpan(const char* name, const char* category, std::uint64_t startNs,
               std::uint64_t durationNs, std::initializer_list<TraceArg> args) {
    recordCurrent(kSpans, TracePhase::Span, name, category, startNs, durationNs, args);
}

void traceCounter(const char* name, const char* category,
                  std::initializer_list<TraceArg> args) {
    if (!JobTraceStore::collecting()) return;
    recordCurrent(kSpans, TracePhase::Counter, name, category, steadyNowNs(), 0, args);
}

} // namespace voltcache::obs
