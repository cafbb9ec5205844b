#include "obs/export/journal.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/json.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace voltcache::obs {

namespace {

/// One event's NDJSON line (no trailing newline); `slot` is the thread slot
/// whose ring held it.
std::string legEventToJson(const LegEvent& event, std::uint32_t slot) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", legPhaseName(event.phase));
    json.member("slot", slot);
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

} // namespace

LegJournal::LegJournal(const std::string& path, bool autoDrain, std::uint64_t maxBytes)
    : path_(path), maxBytes_(maxBytes), out_(path),
      withoutRingSeen_(legEventsWithoutRing()),
      epochNs_(steadyNowNs()),
      droppedCounter_(MetricsRegistry::global().counter("journal.dropped")),
      eventCounter_(MetricsRegistry::global().counter("journal.events")),
      rotationCounter_(MetricsRegistry::global().counter("journal.rotations")) {
    if (!out_) throw std::runtime_error("LegJournal: cannot write '" + path + "'");
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        if (const EventRing* ring = eventRing(slot, TraceLane::Legs)) {
            first_[slot] = next_[slot] = ring->recorded();
        }
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

void LegJournal::drop(std::uint64_t events) {
    dropped_.fetch_add(events, std::memory_order_relaxed);
    droppedCounter_.add(events);
}

std::size_t LegJournal::drainOnce() {
    std::size_t drained = 0;
    TraceEvent event;
    for (std::uint32_t slot = 0; slot < kMaxThreadSlots; ++slot) {
        const EventRing* ring = eventRing(slot, TraceLane::Legs);
        if (ring == nullptr) continue;
        std::uint64_t& next = next_[slot];
        const std::uint64_t recorded = ring->recorded();
        if (const std::uint64_t oldest = ring->oldest(recorded); next < oldest) {
            drop(oldest - next);
            next = oldest;
        }
        for (; next < recorded; ++next) {
            if (!ring->read(next, event)) { // overwritten while read
                drop(1);
                continue;
            }
            LegEvent leg = event.leg;
            leg.sequence = next - first_[slot];
            leg.timestampNs = leg.timestampNs > epochNs_ ? leg.timestampNs - epochNs_ : 0;
            writeLine(leg, slot);
            ++drained;
        }
    }
    const std::uint64_t withoutRing = legEventsWithoutRing();
    drop(withoutRing - withoutRingSeen_);
    withoutRingSeen_ = withoutRing;
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

void LegJournal::writeLine(const LegEvent& event, std::uint32_t slot) {
    const std::string line = legEventToJson(event, slot);
    if (maxBytes_ != 0 && currentBytes_ != 0 &&
        currentBytes_ + line.size() + 1 > maxBytes_) {
        rotate();
    }
    out_ << line << '\n';
    currentBytes_ += line.size() + 1;
    written_.fetch_add(1, std::memory_order_relaxed);
    eventCounter_.add();
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

} // namespace voltcache::obs
