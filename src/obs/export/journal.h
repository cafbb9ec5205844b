// Bounded, lock-light NDJSON leg journal.
//
// One event per leg lifecycle transition (enqueued / started / finished).
// Producers — the sweep coordinator and each worker thread — push fixed-size
// POD events into their own single-producer/single-consumer ring; a drainer
// thread pops every ring in order and serializes each event as one JSON line.
// The hot path is therefore two relaxed atomic loads, a slot write, and a
// release store — no mutex, no allocation, no syscall. When a ring is full
// the event is *dropped, not blocked on*: the sweep must never stall on the
// observer. Drops are accounted per journal (dropped()) and process-wide
// ("journal.dropped" registry counter), so a saturated journal is visible in
// the same /metrics endpoint it starves.
//
// Per-producer event order is preserved end-to-end (SPSC FIFO + in-order
// drain); events from different producers interleave arbitrarily, which is
// why every line carries its worker id and a per-producer sequence number.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"

namespace voltcache::obs {

namespace detail {

/// Single-producer / single-consumer bounded ring of LegEvents.
class SpscEventRing {
public:
    explicit SpscEventRing(std::size_t capacityPow2);
    [[nodiscard]] bool tryPush(const LegEvent& event) noexcept; ///< producer
    [[nodiscard]] bool tryPop(LegEvent& event) noexcept;        ///< consumer

private:
    std::vector<LegEvent> slots_;
    std::size_t mask_ = 0;
    alignas(64) std::atomic<std::uint64_t> head_{0}; ///< next pop
    alignas(64) std::atomic<std::uint64_t> tail_{0}; ///< next push
};

} // namespace detail

class LegJournal {
public:
    /// Opens `path` for writing and sizes one ring per producer. Producer 0
    /// is conventionally the sweep coordinator (enqueue events); workers use
    /// 1 + workerId. `ringCapacity` is rounded up to a power of two.
    /// `autoDrain=false` skips the drainer thread — tests drive drainOnce()
    /// by hand to make overflow accounting deterministic.
    /// `maxBytes` caps the journal file: when a written line would push the
    /// current file past the cap, the file is rotated to `path + ".1"`
    /// (replacing any previous rotation) and writing restarts on a fresh
    /// `path`. 0 = unbounded (the default).
    LegJournal(const std::string& path, std::size_t producers,
               std::size_t ringCapacity = 4096, bool autoDrain = true,
               std::uint64_t maxBytes = 0);
    ~LegJournal();
    LegJournal(const LegJournal&) = delete;
    LegJournal& operator=(const LegJournal&) = delete;

    /// Producer side: stamp timestamp + sequence and push. A full ring (or an
    /// out-of-range producer index) drops the event and bumps the counters.
    void emit(std::size_t producer, LegEvent event) noexcept;

    /// Pop-and-write everything currently queued; returns events written.
    /// The drainer thread calls this continuously; with autoDrain=false the
    /// owner does.
    std::size_t drainOnce();

    /// Stop the drainer, perform a final drain, and flush the file.
    /// Idempotent; also run by the destructor.
    void close();

    [[nodiscard]] std::size_t producers() const noexcept { return rings_.size(); }
    [[nodiscard]] std::uint64_t written() const noexcept {
        return written_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    /// Rotations performed so far (only possible when maxBytes > 0).
    [[nodiscard]] std::uint64_t rotations() const noexcept {
        return rotations_.load(std::memory_order_relaxed);
    }

private:
    void writeLine(const LegEvent& event);
    void rotate();

    std::string path_;
    std::uint64_t maxBytes_ = 0;
    std::uint64_t currentBytes_ = 0; ///< drainer thread only
    std::ofstream out_;
    std::vector<std::unique_ptr<detail::SpscEventRing>> rings_;
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> sequences_;
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> written_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> rotations_{0};
    Counter droppedCounter_;  ///< "journal.dropped" in the global registry
    Counter eventCounter_;    ///< "journal.events"
    Counter rotationCounter_; ///< "journal.rotations"
    std::atomic_bool stop_{false};
    bool closed_ = false;
    std::thread drainer_;
};

/// Serialize one event as its NDJSON line (no trailing newline) — exposed
/// for tests and for `voltcache top`'s journal tailing.
[[nodiscard]] std::string legEventToJson(const LegEvent& event);

} // namespace voltcache::obs
