// Fault Buffer Array (FBA, [2]) and Inquisitive Defect Cache (IDC, [21])
// (paper Section III-B).
//
// Both schemes start from simple word disable and add a small side
// structure holding recently-used *defective* words:
//   * FBA — fully-associative, word-location-tagged (CAM) buffer,
//   * IDC — set-associative auxiliary cache.
// An access to a defective word first probes the buffer; a buffer miss is
// handled like a normal cache miss (L2) and the word is installed. Probing
// the side structure adds one cycle to every L1 access (Table III). The
// paper's Fig. 10-12 evaluate optimistic FBA+/IDC+ variants with 1024
// entries.
//
// WordBuffer is O(1) per operation. Seen from outside, each set is an LRU
// set of word addresses with a fixed capacity, and which physical slot holds
// a word never leaks. So instead of scanning a 1024-way CAM, an
// open-addressing index maps a word address to its slot, and each set keeps
// an intrusive LRU list: a hit moves the word to the front, a full set
// evicts its tail, a set with room takes any free slot. That is exactly the
// old scan's behaviour (first invalid way, else least recent use), so every
// hit and miss is unchanged. Links and index cells are u16 slot numbers:
// 8 B per slot plus two 2 B index cells, 12 B per entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "schemes/word_disable.h"

namespace voltcache {

/// Word-granular victim store for defective words. Fully associative when
/// ways == entries (FBA, CAM-tagged); set-associative otherwise (IDC).
/// Unlike TagArray this supports arbitrarily high associativity (the
/// paper's FBA+ is a 1024-entry CAM) at O(1) cost per operation.
class WordBuffer {
public:
    WordBuffer(std::uint32_t entries, std::uint32_t ways);

    /// Lookup a word address; updates LRU on hit.
    [[nodiscard]] bool probe(std::uint32_t wordAddr);
    /// Install a word address (LRU eviction within its set).
    void insert(std::uint32_t wordAddr);
    /// Drop one word (used when the L1 line owning it is evicted — FBA/IDC
    /// entries are substitute storage for resident lines, not a victim
    /// cache, so they die with the line).
    void invalidate(std::uint32_t wordAddr);
    void clear();

    [[nodiscard]] std::uint32_t entries() const noexcept { return entries_; }
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }

private:
    using Link = std::uint16_t;
    static constexpr Link kNil = 0xFFFF;

    struct Slot {
        std::uint32_t wordAddr = 0;
        Link prev = kNil; ///< towards the set's MRU end
        Link next = kNil; ///< towards the LRU end; the free list's link
    };
    struct SetList {
        Link head = kNil; ///< most recently used
        Link tail = kNil; ///< least recently used: the next victim
        std::uint16_t size = 0;
    };

    [[nodiscard]] std::uint32_t home(std::uint32_t wordAddr) const noexcept {
        return (wordAddr * 0x9E3779B1u) >> indexShift_;
    }
    /// Index cell holding `wordAddr`'s slot, or the empty cell ending its
    /// probe run.
    [[nodiscard]] std::uint32_t findCell(std::uint32_t wordAddr) const noexcept;
    /// Empty `cell` and close the gap (backward-shift deletion), so probe
    /// runs never need tombstones.
    void eraseCell(std::uint32_t cell) noexcept;
    void unlink(SetList& set, Link slot) noexcept;
    void pushFront(SetList& set, Link slot) noexcept;
    /// Make `slot` its set's most recently used word.
    void touch(SetList& set, Link slot) noexcept;

    std::uint32_t entries_;
    std::uint32_t ways_;
    std::uint32_t sets_;
    std::uint32_t indexMask_ = 0;
    std::uint32_t indexShift_ = 0;
    std::vector<Slot> slots_;
    std::vector<Link> index_; ///< open addressing, linear probing; kNil = empty
    std::vector<SetList> lists_;
    Link freeHead_ = kNil;
    std::uint64_t probes_ = 0;
    std::uint64_t hits_ = 0;
};

/// Configuration distinguishing FBA from IDC.
struct FaultBufferConfig {
    std::uint32_t entries = 1024;
    std::uint32_t ways = 1024; ///< == entries: fully associative (FBA)
    std::string name = "fba+";
};

[[nodiscard]] FaultBufferConfig fbaConfig(std::uint32_t entries = 1024);
[[nodiscard]] FaultBufferConfig idcConfig(std::uint32_t entries = 1024,
                                          std::uint32_t ways = 8);

/// FBA/IDC start from simple word disable and add the word buffer.
class FaultBufferPolicy : public SimpleWordDisablePolicy {
public:
    FaultBufferPolicy(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2,
                      FaultBufferConfig config);

    [[nodiscard]] const WordBuffer& buffer() const noexcept { return buffer_; }

protected:
    [[nodiscard]] std::uint32_t extraCycles() const noexcept { return 1; }
    [[nodiscard]] std::string_view label() const noexcept { return config_.name; }
    /// A defective word redirects to the buffer.
    bool probeAux(std::uint32_t addr, AccessResult& result);
    void onWordMiss(std::uint32_t /*set*/, std::uint32_t /*way*/, std::uint32_t /*word*/,
                    std::uint32_t addr) {
        buffer_.insert(addr / 4);
    }
    void fill(std::uint32_t addr, std::uint32_t set, std::uint32_t tag, std::uint32_t word,
              AccessResult& result);
    void onInvalidateAll() { buffer_.clear(); }

private:
    FaultBufferConfig config_;
    WordBuffer buffer_;
    const char* probeEvent_; ///< "fba.probe"/"idc.probe" (trace names must be literals)
};

using FaultBufferCache = L1Core<FaultBufferPolicy>;

} // namespace voltcache
