// Content-addressed leg-result store for `voltcache serve`.
//
// LegStore implements core's LegResultSource: keys are the 32-byte leg
// digests from core/sweep.h (module image + scheme + operating point + chip
// seed + every result-affecting SystemConfig field), values are the exact
// per-leg reduction slots (LegResult). The sweep probes the store before
// committing to any heavy work, so a fully warm job never records a trace
// or simulates a single leg — and because the value is the reduction slot
// itself, a cached sweep stays byte-identical to a cold one.
//
// Two tiers:
//   * In-memory LRU under a byte budget (`--store-budget`). Insertions move
//     entries to the front; evictions pop the tail. Hits touch. Entries live
//     in a chunked slab of fixed-size slots (key, LRU links, linkFailed, the
//     7 metric doubles: 104 B) that never moves or shrinks; an evicted slot
//     is reused first. An open-addressing index of u32 slot numbers (at
//     most half full) maps keys to slots. LegForensics (432 B) lives in a
//     second slab and only for legs whose forensics are not all zero — the
//     FFW/BBR legs — so a plain leg costs 112 B (its slot and its share of
//     the index) against about 600 B for list and hash-map nodes holding
//     whole LegResults.
//   * Optional append-only on-disk segment (`--store DIR/legs.vcs`) that
//     survives restarts. Every record carries a SHA-256 of (key || payload);
//     records failing verification on load are counted and skipped, a stale
//     header (magic/payload-size mismatch after a format change) discards
//     the whole file — it is a cache, losing it costs re-simulation only.
//
// Thread safety: one mutex guards the LRU and the segment writer. lookup(),
// lookupBatch() and store() are called concurrently from sweep workers. A
// sweep probes each benchmark's legs with one lookupBatch() — one lock
// acquisition per benchmark, not per leg — so probes of different
// benchmarks running side by side barely contend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "core/sweep.h"
#include "obs/metrics.h"

namespace voltcache::serve {

/// Fixed on-disk payload size of one serialized LegResult (version
/// kSegmentMagic): 1 linkFailed byte, 7 metric doubles as raw IEEE-754 bits
/// little-endian, and the full LegForensics (52 u64 histogram/count slots +
/// hasFfw/hasBbr/failCause bytes). Fixed size keeps segment framing intact
/// even when a record's body is corrupt.
inline constexpr std::size_t kLegPayloadBytes = 484;

/// Serialize one reduction slot into the fixed little-endian payload.
[[nodiscard]] std::string encodeLegResult(const LegResult& value);

/// Inverse of encodeLegResult. Returns false (leaving `out` unspecified) on
/// a size or enum-range mismatch.
[[nodiscard]] bool decodeLegResult(std::string_view payload, LegResult& out);

class LegStore final : public LegResultSource {
public:
    struct Options {
        std::uint64_t byteBudget = 256ull << 20; ///< in-memory LRU budget
        std::string directory;                   ///< empty = memory-only
    };

    /// Point-in-time view of the store counters (also exported as
    /// serve.store.* through the metrics registry).
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t loaded = 0;   ///< entries restored from the segment
        std::uint64_t rejected = 0; ///< corrupt segment records skipped
        std::uint64_t entries = 0;  ///< live LRU entries
        std::uint64_t bytes = 0;    ///< accounted LRU bytes
    };

    /// Opens (or creates) the segment when options.directory is non-empty
    /// and restores every digest-verified record into the LRU. Throws
    /// std::runtime_error when the directory is unusable.
    explicit LegStore(const Options& options);
    ~LegStore() override;

    LegStore(const LegStore&) = delete;
    LegStore& operator=(const LegStore&) = delete;

    bool lookup(const Digest256& key, LegResult& out) override;
    std::size_t lookupBatch(std::span<const Digest256> keys, std::span<LegResult> out,
                            std::span<char> hits) override;
    void store(const Digest256& key, const LegResult& value) override;

    /// Flush the segment writer (graceful-shutdown path; the destructor
    /// flushes too).
    void flush();

    [[nodiscard]] Stats stats() const;

    /// Bytes one entry holding `value` counts against the budget: its slot,
    /// its share of the index, and its out-of-line forensics if any.
    [[nodiscard]] static std::uint64_t entryBytes(const LegResult& value) noexcept;

private:
    [[nodiscard]] static std::uint64_t slotBytes(bool hasForensics) noexcept;
    static constexpr std::uint32_t kNil = 0xFFFFFFFF;

    /// Fixed-size objects in chunks that never move; released ids are
    /// reused before the slab grows.
    template <class T, std::uint32_t kChunk>
    class Slab {
    public:
        [[nodiscard]] T& operator[](std::uint32_t id) noexcept {
            return chunks_[id / kChunk][id % kChunk];
        }
        [[nodiscard]] std::uint32_t allocate() {
            if (!free_.empty()) {
                const std::uint32_t id = free_.back();
                free_.pop_back();
                return id;
            }
            if (used_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
            return used_++;
        }
        void release(std::uint32_t id) { free_.push_back(id); }

    private:
        std::vector<std::unique_ptr<T[]>> chunks_;
        std::vector<std::uint32_t> free_;
        std::uint32_t used_ = 0;
    };

    struct Slot {
        Digest256 key{};
        double normRuntime = 0.0;
        double l2PerKilo = 0.0;
        double normEpi = 0.0;
        double busyFrac = 0.0;
        double ifetchFrac = 0.0;
        double dmemFrac = 0.0;
        double branchFrac = 0.0;
        std::uint32_t prev = kNil;      ///< towards the MRU end
        std::uint32_t next = kNil;      ///< towards the LRU end
        std::uint32_t forensics = kNil; ///< forensics_ id; kNil = all zero
        bool linkFailed = false;
    };

    /// Index cell holding `key`'s slot, or the empty cell ending its run.
    [[nodiscard]] std::size_t findCell(const Digest256& key) noexcept;
    [[nodiscard]] std::size_t home(const Digest256& key) const noexcept;
    void eraseCell(std::size_t cell) noexcept;
    void growIndex();
    void unlink(std::uint32_t id) noexcept;
    void pushFront(std::uint32_t id) noexcept;
    void touch(std::uint32_t id) noexcept; ///< make `id` the most recently used
    void assign(Slot& entry, const LegResult& value);
    void releaseForensics(Slot& entry);

    /// lookup() without the lock or the hit/miss metrics.
    [[nodiscard]] bool lookupLocked(const Digest256& key, LegResult& out);
    void loadSegment(const std::string& path);
    void openSegmentForAppend(const std::string& path, bool truncate);
    void insertLocked(const Digest256& key, const LegResult& value, bool persist);
    void evictLocked();

    mutable std::mutex mutex_;
    Slab<Slot, 1024> slots_;
    Slab<LegForensics, 64> forensics_;
    std::uint32_t head_ = kNil;      ///< most recently used
    std::uint32_t tail_ = kNil;      ///< least recently used
    std::vector<std::uint32_t> index_; ///< open addressing, linear probing
    std::uint32_t indexShift_ = 0;
    std::uint64_t byteBudget_ = 0;
    std::uint64_t bytes_ = 0;
    std::ofstream segment_; ///< open iff a directory was configured
    Stats stats_;

    // serve.store.* handles resolved once; Counter::add / Gauge::set are
    // single relaxed atomics, keeping lookup() cheap enough to bench.
    obs::Counter hitsMetric_;
    obs::Counter missesMetric_;
    obs::Counter insertsMetric_;
    obs::Counter evictionsMetric_;
    obs::Gauge entriesMetric_;
    obs::Gauge bytesMetric_;
};

} // namespace voltcache::serve
