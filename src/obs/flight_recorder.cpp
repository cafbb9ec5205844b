#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/contracts.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace voltcache::obs {

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

// --- per-thread active span stacks -----------------------------------------
//
// Fixed pool, fixed depth, indexed by the thread's obs::threadSlot(). A
// thread's spans have all closed by the time it exits, so its stack is back
// at depth 0 when the slot passes to the next new thread; the crash path
// walks the pool with plain loads. Names are string literals (obs::Span's
// contract), safe to read from a handler.

constexpr int kMaxSpanDepth = 16;

struct ThreadSpanStack {
    std::atomic<int> depth{0};
    const char* names[kMaxSpanDepth] = {};
    std::atomic<bool> used{false};
};

ThreadSpanStack g_spanStacks[kMaxThreadSlots];

ThreadSpanStack* threadSpanStack() noexcept {
    thread_local ThreadSpanStack* const slot = []() -> ThreadSpanStack* {
        const std::uint32_t index = threadSlot();
        if (index >= kMaxThreadSlots) return nullptr;
        g_spanStacks[index].used.store(true, std::memory_order_relaxed);
        return &g_spanStacks[index];
    }();
    return slot;
}

// --- async-signal-safe JSON writer ------------------------------------------

/// Buffered write(2) emitter: no allocation, no stdio, no locale. Strings are
/// sanitized instead of escaped (quote/backslash/control bytes become safe
/// characters) so the emitter never needs to grow an escape buffer.
struct DumpWriter {
    int fd = -1;
    char buf[4096];
    std::size_t len = 0;

    void flush() noexcept {
        std::size_t off = 0;
        while (off < len) {
            const ssize_t n = ::write(fd, buf + off, len - off);
            if (n <= 0) break;
            off += static_cast<std::size_t>(n);
        }
        len = 0;
    }
    void raw(char c) noexcept {
        if (len == sizeof buf) flush();
        buf[len++] = c;
    }
    void text(const char* s) noexcept {
        for (; *s != '\0'; ++s) raw(*s);
    }
    /// "..." with sanitization; NUL-terminated input, bounded by maxBytes.
    void quoted(const char* s, std::size_t maxBytes) noexcept {
        raw('"');
        for (std::size_t i = 0; i < maxBytes && s[i] != '\0'; ++i) {
            const char c = s[i];
            if (c == '"' || c == '\\') {
                raw('\'');
            } else if (static_cast<unsigned char>(c) < 0x20) {
                raw(' ');
            } else {
                raw(c);
            }
        }
        raw('"');
    }
    void u64(std::uint64_t v) noexcept {
        char tmp[20];
        int n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n != 0) raw(tmp[--n]);
    }
    void i64(std::int64_t v) noexcept {
        if (v < 0) {
            raw('-');
            u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
        } else {
            u64(static_cast<std::uint64_t>(v));
        }
    }
    /// Fixed three decimals — enough for the mirrored gauges/counters.
    void f64(double v) noexcept {
        if (v != v) { // NaN: JSON cannot represent it
            text("null");
            return;
        }
        if (v < 0) {
            raw('-');
            v = -v;
        }
        if (v > 9.0e18) {
            text("9000000000000000000");
            return;
        }
        const auto integral = static_cast<std::uint64_t>(v);
        u64(integral);
        raw('.');
        auto frac = static_cast<std::uint64_t>((v - static_cast<double>(integral)) * 1000.0 + 0.5);
        if (frac >= 1000) frac = 999;
        raw(static_cast<char>('0' + frac / 100));
        raw(static_cast<char>('0' + (frac / 10) % 10));
        raw(static_cast<char>('0' + frac % 10));
    }
};

void copyBounded(char* dest, std::size_t capacity, std::string_view src) noexcept {
    const std::size_t n = src.size() < capacity - 1 ? src.size() : capacity - 1;
    std::memcpy(dest, src.data(), n);
    dest[n] = '\0';
}

} // namespace

struct FlightRecorder::Impl {
    int fd = -1;
    std::uint64_t epochNs = 0; ///< steady_clock at install (event t=0)
    std::uint64_t recordedAtInstall[kMaxThreadSlots] = {}; ///< per leg lane

    std::atomic<std::uint64_t> benchmarksCompleted{0};
    std::atomic<std::uint64_t> benchmarksTotal{0};
    std::atomic<std::uint64_t> legsCompleted{0};
    std::atomic<std::uint64_t> legsTotal{0};
    std::atomic<std::uint64_t> legsReplayed{0};
    std::atomic<std::uint64_t> legsExecuted{0};
    std::atomic<std::uint64_t> legsCached{0};
    std::atomic<std::uint32_t> workers{0};

    char job[96] = {};
    char traceHex[40] = {};

    static constexpr std::size_t kMaxMetrics = 96;
    static constexpr std::size_t kMetricNameBytes = 96;
    struct MetricEntry {
        char name[kMetricNameBytes] = {};
        std::atomic<double> value{0.0};
        std::atomic<bool> set{false};
    };
    MetricEntry metrics[kMaxMetrics];
    std::mutex metricsMutex; ///< normal path only; the dump reads lock-free

    std::atomic<bool> dumped{false};
};

FlightRecorder::FlightRecorder(const Options& options) : impl_(new Impl) {
    impl_->fd = ::open(options.path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
    if (impl_->fd < 0) {
        delete impl_;
        throw std::runtime_error("flight recorder: cannot open '" + options.path + "'");
    }
    impl_->epochNs = steadyNowNs();
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        if (const EventRing* ring = eventRing(slot, TraceLane::Legs)) {
            impl_->recordedAtInstall[slot] = ring->recorded();
        }
    }
}

FlightRecorder::~FlightRecorder() {
    if (impl_->fd >= 0) ::close(impl_->fd);
    delete impl_;
}

namespace {

void flightSignalHandler(int sig) {
    if (FlightRecorder* recorder = g_recorder.load(std::memory_order_relaxed)) {
        recorder->dumpNow(sig == SIGSEGV ? "SIGSEGV" : sig == SIGABRT ? "SIGABRT" : "signal");
    }
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

void flightContractHook(const char* kind, const char* expr, const char* file,
                        int line) noexcept {
    FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
    if (recorder == nullptr) return;
    // "expr at file:line", built without allocation.
    char detail[512];
    std::size_t n = 0;
    const auto append = [&detail, &n](const char* s) noexcept {
        for (; *s != '\0' && n < sizeof(detail) - 1; ++s) detail[n++] = *s;
    };
    append(expr);
    append(" at ");
    append(file);
    append(":");
    char digits[16];
    int d = 0;
    unsigned value = line < 0 ? 0u : static_cast<unsigned>(line);
    do {
        digits[d++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value != 0 && d < 15);
    while (d != 0 && n < sizeof(detail) - 1) detail[n++] = digits[--d];
    detail[n] = '\0';
    recorder->dumpNow(kind, detail);
}

} // namespace

FlightRecorder& FlightRecorder::install(const Options& options) {
    auto* recorder = new FlightRecorder(options); // leaked: must outlive crashes
    FlightRecorder* previous = g_recorder.exchange(recorder, std::memory_order_acq_rel);
    // The previous recorder (tests installing twice) is abandoned, not freed:
    // a concurrent crash may still be dumping through it.
    (void)previous;

    struct sigaction action{};
    action.sa_handler = flightSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGSEGV, &action, nullptr);
    ::sigaction(SIGABRT, &action, nullptr);
    voltcache::detail::setContractHook(&flightContractHook);
    return *recorder;
}

FlightRecorder* FlightRecorder::instance() noexcept {
    return g_recorder.load(std::memory_order_acquire);
}

bool flightRecorderArmed() noexcept {
    return g_recorder.load(std::memory_order_relaxed) != nullptr;
}

bool flightSpanEnter(const char* name) noexcept {
    ThreadSpanStack* stack = threadSpanStack();
    if (stack == nullptr) return false;
    const int depth = stack->depth.load(std::memory_order_relaxed);
    if (depth >= kMaxSpanDepth) return false;
    stack->names[depth] = name;
    stack->depth.store(depth + 1, std::memory_order_release);
    return true;
}

void flightSpanExit() noexcept {
    ThreadSpanStack* stack = threadSpanStack();
    if (stack == nullptr) return;
    const int depth = stack->depth.load(std::memory_order_relaxed);
    if (depth > 0) stack->depth.store(depth - 1, std::memory_order_release);
}

void FlightRecorder::noteProgress(const SweepProgress& progress) noexcept {
    impl_->benchmarksCompleted.store(progress.benchmarksCompleted, std::memory_order_relaxed);
    impl_->benchmarksTotal.store(progress.benchmarksTotal, std::memory_order_relaxed);
    impl_->legsCompleted.store(progress.legsCompleted, std::memory_order_relaxed);
    impl_->legsTotal.store(progress.legsTotal, std::memory_order_relaxed);
    impl_->legsReplayed.store(progress.legsReplayed, std::memory_order_relaxed);
    impl_->legsExecuted.store(progress.legsExecuted, std::memory_order_relaxed);
    impl_->legsCached.store(progress.legsCached, std::memory_order_relaxed);
    impl_->workers.store(progress.workers, std::memory_order_relaxed);
}

void FlightRecorder::noteJob(std::string_view label, const TraceContext& context) noexcept {
    copyBounded(impl_->job, sizeof impl_->job, label);
    const std::string hex = traceIdHex(context); // normal path: allocation OK
    copyBounded(impl_->traceHex, sizeof impl_->traceHex, hex);
}

void FlightRecorder::noteMetrics() {
    const std::vector<MetricSnapshot> snapshot = MetricsRegistry::global().snapshot();
    const std::lock_guard<std::mutex> lock(impl_->metricsMutex);
    for (const MetricSnapshot& metric : snapshot) {
        // Flatten "name{k=v,...}" like the Prometheus exposition.
        char flat[Impl::kMetricNameBytes];
        std::size_t n = 0;
        const auto append = [&flat, &n](std::string_view s) noexcept {
            for (const char c : s) {
                if (n >= sizeof(flat) - 1) break;
                flat[n++] = c;
            }
        };
        append(metric.name);
        if (!metric.labels.empty()) {
            append("{");
            bool first = true;
            for (const auto& [k, v] : metric.labels) {
                if (!first) append(",");
                first = false;
                append(k);
                append("=");
                append(v);
            }
            append("}");
        }
        flat[n] = '\0';
        const double value = metric.kind == MetricKind::Gauge
                                 ? metric.value
                                 : static_cast<double>(metric.count);
        Impl::MetricEntry* target = nullptr;
        for (Impl::MetricEntry& entry : impl_->metrics) {
            if (entry.set.load(std::memory_order_relaxed)) {
                if (std::strncmp(entry.name, flat, sizeof flat) == 0) {
                    target = &entry;
                    break;
                }
            } else if (target == nullptr) {
                target = &entry;
            }
        }
        if (target == nullptr) continue; // mirror full: drop new families
        if (!target->set.load(std::memory_order_relaxed)) {
            std::memcpy(target->name, flat, sizeof flat);
            target->set.store(true, std::memory_order_release);
        }
        target->value.store(value, std::memory_order_relaxed);
    }
}

std::uint64_t FlightRecorder::eventsNoted() const noexcept {
    std::uint64_t noted = 0;
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        if (const EventRing* ring = eventRing(slot, TraceLane::Legs)) {
            noted += ring->recorded() - impl_->recordedAtInstall[slot];
        }
    }
    return noted;
}

void FlightRecorder::rearm() noexcept {
    impl_->dumped.store(false, std::memory_order_release);
}

bool FlightRecorder::dumpNow(const char* reason, const char* detail) noexcept {
    if (impl_->dumped.exchange(true, std::memory_order_acq_rel)) return false;
    ::lseek(impl_->fd, 0, SEEK_SET);
    ::ftruncate(impl_->fd, 0);

    DumpWriter w;
    w.fd = impl_->fd;
    w.text("{\"tool\":\"voltcache\",\"kind\":\"flight\",\"reason\":");
    w.quoted(reason != nullptr ? reason : "unknown", 128);
    if (detail != nullptr) {
        w.text(",\"detail\":");
        w.quoted(detail, 512);
    }
    if (impl_->job[0] != '\0') {
        w.text(",\"job\":");
        w.quoted(impl_->job, sizeof impl_->job);
    }
    if (impl_->traceHex[0] != '\0') {
        w.text(",\"trace\":");
        w.quoted(impl_->traceHex, sizeof impl_->traceHex);
    }

    w.text(",\"progress\":{\"benchmarksCompleted\":");
    w.u64(impl_->benchmarksCompleted.load(std::memory_order_relaxed));
    w.text(",\"benchmarksTotal\":");
    w.u64(impl_->benchmarksTotal.load(std::memory_order_relaxed));
    w.text(",\"legsCompleted\":");
    w.u64(impl_->legsCompleted.load(std::memory_order_relaxed));
    w.text(",\"legsTotal\":");
    w.u64(impl_->legsTotal.load(std::memory_order_relaxed));
    w.text(",\"legsReplayed\":");
    w.u64(impl_->legsReplayed.load(std::memory_order_relaxed));
    w.text(",\"legsExecuted\":");
    w.u64(impl_->legsExecuted.load(std::memory_order_relaxed));
    w.text(",\"legsCached\":");
    w.u64(impl_->legsCached.load(std::memory_order_relaxed));
    w.text(",\"workers\":");
    w.u64(impl_->workers.load(std::memory_order_relaxed));
    w.text("}");

    w.text(",\"metrics\":[");
    bool firstMetric = true;
    for (const Impl::MetricEntry& entry : impl_->metrics) {
        if (!entry.set.load(std::memory_order_acquire)) continue;
        if (!firstMetric) w.raw(',');
        firstMetric = false;
        w.text("{\"name\":");
        w.quoted(entry.name, sizeof entry.name);
        w.text(",\"value\":");
        w.f64(entry.value.load(std::memory_order_relaxed));
        w.text("}");
    }
    w.text("]");

    w.text(",\"threads\":[");
    bool firstThread = true;
    for (const ThreadSpanStack& stack : g_spanStacks) {
        if (!stack.used.load(std::memory_order_relaxed)) continue;
        if (!firstThread) w.raw(',');
        firstThread = false;
        w.text("{\"spans\":[");
        int depth = stack.depth.load(std::memory_order_acquire);
        if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
        for (int i = 0; i < depth; ++i) {
            if (i != 0) w.raw(',');
            const char* name = stack.names[i];
            w.quoted(name != nullptr ? name : "?", 64);
        }
        w.text("]}");
    }
    w.text("]");

    // Per slot, its newest kDumpEventsPerSlot leg events since install,
    // oldest first; one overwritten while the dump reads it is skipped.
    static_assert(kDumpEventsPerSlot <= kLegLaneEvents, "the window fits in a lane");
    std::uint64_t first[kMaxThreadSlots];
    std::uint64_t last[kMaxThreadSlots];
    std::uint64_t noted = 0;
    std::uint64_t windows = 0;
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        const EventRing* ring = eventRing(slot, TraceLane::Legs);
        const std::uint64_t since = impl_->recordedAtInstall[slot];
        last[slot] = ring == nullptr ? since : ring->recorded();
        first[slot] = std::max(since, last[slot] - std::min<std::uint64_t>(last[slot],
                                                                           kDumpEventsPerSlot));
        noted += last[slot] - since;
        windows += last[slot] - first[slot];
    }
    w.text(",\"eventsNoted\":");
    w.u64(noted);
    w.text(",\"eventsDropped\":");
    w.u64(noted - windows);
    w.text(",\"events\":[");
    bool firstEvent = true;
    TraceEvent event;
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        const EventRing* ring = eventRing(slot, TraceLane::Legs);
        for (std::uint64_t i = first[slot]; ring != nullptr && i < last[slot]; ++i) {
            if (!ring->read(i, event)) continue;
            const LegEvent& leg = event.leg;
            if (!firstEvent) w.raw(',');
            firstEvent = false;
            w.text("{\"ev\":\"");
            w.text(legPhaseName(leg.phase));
            w.text("\",\"slot\":");
            w.u64(slot);
            w.text(",\"seq\":");
            w.u64(i - impl_->recordedAtInstall[slot]);
            w.text(",\"tNs\":");
            w.u64(leg.timestampNs > impl_->epochNs ? leg.timestampNs - impl_->epochNs : 0);
            w.text(",\"leg\":");
            w.u64(leg.leg);
            w.text(",\"worker\":");
            w.u64(leg.worker);
            w.text(",\"benchmark\":");
            w.quoted(leg.benchmark, sizeof leg.benchmark);
            w.text(",\"scheme\":");
            w.quoted(leg.scheme, sizeof leg.scheme);
            w.text(",\"mv\":");
            w.i64(leg.voltageMv);
            w.text(",\"trial\":");
            w.u64(leg.trial);
            if (leg.phase == LegEvent::Phase::Finished) {
                w.text(",\"durationNs\":");
                w.u64(leg.durationNs);
                w.text(",\"outcome\":\"");
                w.text(leg.linkFailed ? "link_failed" : "ok");
                w.text("\"");
            }
            w.text("}");
        }
    }
    w.text("]}\n");
    w.flush();
    ::fsync(impl_->fd);
    return true;
}

} // namespace voltcache::obs
