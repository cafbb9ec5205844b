// Bounded NDJSON leg journal.
//
// One line per leg lifecycle transition (enqueued / started / finished).
// Producers keep no journal state: a sweep's job scope records each
// obs::LegEvent once, into the recording thread's leg lane (obs/trace.h),
// and a drainer thread walks every slot's leg lane with one cursor each and
// writes the events it finds, one JSON line each. The hot path is the ring's
// slot write and release stores — no mutex, no allocation, no syscall.
// A lane that laps the drainer overwrites its oldest events: the journal
// counts the leg events it lost that way, and those of threads whose slot
// owns no ring, as dropped, and never stalls the sweep. Drops are accounted
// per journal (dropped()) and process-wide ("journal.dropped" registry
// counter), so a saturated journal is visible in the same /metrics
// endpoint it starves.
//
// A line's producer is the thread slot whose lane held it ("slot"), not its
// sweep worker id ("worker"): a pool thread runs tasks for any worker id.
// Per-producer event order is preserved end to end (each lane is FIFO and
// drained in order); events from different slots interleave arbitrarily.
// `seq` is the event's index in its slot's leg lane counted from the
// journal's open: per slot it counts 0, 1, 2, ... and skips only the
// events counted as dropped.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/progress.h"

namespace voltcache::obs {

class LegJournal {
public:
    /// Opens `path` for writing; the journal takes every leg event recorded
    /// from then on. `autoDrain=false` skips the drainer thread — tests drive
    /// drainOnce() by hand to make overflow accounting deterministic.
    /// `maxBytes` caps the journal file: when a written line would push the
    /// current file past the cap, the file is rotated to `path + ".1"`
    /// (replacing any previous rotation) and writing restarts on a fresh
    /// `path`. 0 = unbounded (the default).
    explicit LegJournal(const std::string& path, bool autoDrain = true, std::uint64_t maxBytes = 0);
    ~LegJournal();
    LegJournal(const LegJournal&) = delete;
    LegJournal& operator=(const LegJournal&) = delete;

    /// Read-and-write every leg event recorded since the last drain; returns
    /// events written. The drainer thread calls this continuously; with
    /// autoDrain=false the owner does.
    std::size_t drainOnce();

    /// Stop the drainer, perform a final drain, and flush the file.
    /// Idempotent; also run by the destructor.
    void close();

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
    void drop(std::uint64_t events);
    void writeLine(const LegEvent& event, std::uint32_t slot);
    void rotate();

    std::string path_;
    std::uint64_t maxBytes_ = 0;
    std::uint64_t currentBytes_ = 0; ///< drainer thread only
    std::ofstream out_;
    /// Per slot's leg lane, drainer thread only: the index when the journal
    /// opened (seq 0) and the next index to read.
    std::array<std::uint64_t, kMaxThreadSlots> first_{}, next_{};
    std::uint64_t withoutRingSeen_ = 0;             ///< drainer thread only
    std::uint64_t epochNs_ = 0; ///< steadyNowNs() at construction (timestamp 0)
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

} // namespace voltcache::obs
