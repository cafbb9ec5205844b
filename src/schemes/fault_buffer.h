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
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "schemes/word_disable.h"

namespace voltcache {

/// Word-granular victim store for defective words. Fully associative when
/// ways == entries (FBA, CAM-tagged); set-associative otherwise (IDC).
/// Unlike TagArray this supports arbitrarily high associativity (the
/// paper's FBA+ is a 1024-entry CAM).
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
    struct Entry {
        std::uint32_t wordAddr = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    [[nodiscard]] Entry* findEntry(std::uint32_t wordAddr);

    std::uint32_t entries_;
    std::uint32_t ways_;
    std::uint32_t sets_;
    std::vector<Entry> store_;
    std::uint64_t useCounter_ = 0;
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
