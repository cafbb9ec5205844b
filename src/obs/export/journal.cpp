#include "obs/export/journal.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

#include "common/json.h"
#include "obs/trace_context.h"

namespace voltcache::obs {

namespace detail {

SpscEventRing::SpscEventRing(std::size_t capacityPow2)
    : slots_(capacityPow2), mask_(capacityPow2 - 1) {}

bool SpscEventRing::tryPush(const LegEvent& event) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) return false; // full
    slots_[tail & mask_] = event;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
}

bool SpscEventRing::tryPop(LegEvent& event) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false; // empty
    event = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
}

} // namespace detail

LegJournal::LegJournal(const std::string& path, std::size_t producers,
                       std::size_t ringCapacity, bool autoDrain,
                       std::uint64_t maxBytes)
    : path_(path), maxBytes_(maxBytes), out_(path),
      epoch_(std::chrono::steady_clock::now()),
      droppedCounter_(MetricsRegistry::global().counter("journal.dropped")),
      eventCounter_(MetricsRegistry::global().counter("journal.events")),
      rotationCounter_(MetricsRegistry::global().counter("journal.rotations")) {
    if (!out_) throw std::runtime_error("LegJournal: cannot write '" + path + "'");
    if (producers == 0) producers = 1;
    const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(ringCapacity, 2));
    rings_.reserve(producers);
    sequences_.reserve(producers);
    for (std::size_t i = 0; i < producers; ++i) {
        rings_.push_back(std::make_unique<detail::SpscEventRing>(capacity));
        sequences_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    }
    if (autoDrain) {
        drainer_ = std::thread([this] {
            while (!stop_.load(std::memory_order_acquire)) {
                if (drainOnce() == 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            }
        });
    }
}

LegJournal::~LegJournal() { close(); }

void LegJournal::emit(std::size_t producer, LegEvent event) noexcept {
    if (producer >= rings_.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        droppedCounter_.add();
        return;
    }
    event.timestampNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    event.sequence = sequences_[producer]->fetch_add(1, std::memory_order_relaxed);
    if (!rings_[producer]->tryPush(event)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        droppedCounter_.add();
        return;
    }
    eventCounter_.add();
}

std::size_t LegJournal::drainOnce() {
    std::size_t drained = 0;
    LegEvent event;
    for (const auto& ring : rings_) {
        while (ring->tryPop(event)) {
            writeLine(event);
            ++drained;
        }
    }
    if (drained != 0) out_.flush();
    return drained;
}

void LegJournal::close() {
    if (closed_) return;
    closed_ = true;
    stop_.store(true, std::memory_order_release);
    if (drainer_.joinable()) drainer_.join();
    drainOnce();
    out_.flush();
}

void LegJournal::writeLine(const LegEvent& event) {
    const std::string line = legEventToJson(event);
    if (maxBytes_ != 0 && currentBytes_ != 0 &&
        currentBytes_ + line.size() + 1 > maxBytes_) {
        rotate();
    }
    out_ << line << '\n';
    currentBytes_ += line.size() + 1;
    written_.fetch_add(1, std::memory_order_relaxed);
}

// Single-rotation policy: the live file becomes `path.1` (replacing the
// previous generation), so the on-disk footprint is bounded by ~2·maxBytes.
// Only the drainer thread writes, so no lock is needed.
void LegJournal::rotate() {
    out_.flush();
    out_.close();
    std::rename(path_.c_str(), (path_ + ".1").c_str());
    out_.open(path_, std::ios::trunc);
    currentBytes_ = 0;
    rotations_.fetch_add(1, std::memory_order_relaxed);
    rotationCounter_.add();
}

std::string legEventToJson(const LegEvent& event) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", legPhaseName(event.phase));
    json.member("seq", event.sequence);
    json.member("tNs", event.timestampNs);
    json.member("leg", event.leg);
    json.member("worker", event.worker);
    json.member("benchmark", std::string_view(event.benchmark));
    json.member("scheme", std::string_view(event.scheme));
    json.member("mv", static_cast<std::int64_t>(event.voltageMv));
    json.member("trial", event.trial);
    json.member("replay", event.replayed);
    json.member("cached", event.cached);
    if ((event.traceHi | event.traceLo) != 0) {
        TraceContext context;
        context.traceHi = event.traceHi;
        context.traceLo = event.traceLo;
        json.member("trace", traceIdHex(context));
        json.member("span", spanIdHex(event.spanId));
    }
    if (event.phase == LegEvent::Phase::Finished) {
        json.member("durationNs", event.durationNs);
        json.member("outcome", event.linkFailed ? "link_failed" : "ok");
        json.member("cause", std::string_view(event.failCause));
    }
    json.endObject();
    return json.str();
}

} // namespace voltcache::obs
