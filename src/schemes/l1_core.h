// One word-granular L1 for every scheme (paper Sections III-IV).
//
// Every scheme Table III and Figs. 10-12 compare is the same 4-way,
// write-through, no-write-allocate L1. The schemes differ in two answers
// only: "is this word servable?" and "what happens on a word miss or a
// fill?". L1Core implements the access skeleton once — tag lookup, word
// test, L2 on a miss, fill — and a policy supplies the answers.
//
// A policy derives from L1State, which holds what every L1 owns (geometry,
// tags, fault map, L2 link, stats) together with the answers of a plain
// associative LRU cache. The policy redefines only the hooks it changes and
// adds its own state and inspection API. L1Core<Policy> derives from the
// policy and calls the hooks by name, so there is no virtual dispatch below
// the scheme interfaces and every hook inlines into the access path.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "cache/address.h"
#include "cache/tag_array.h"
#include "faults/fault_map.h"
#include "schemes/scheme.h"

namespace voltcache {

class L1State {
public:
    L1State(const L1State&) = delete;
    L1State& operator=(const L1State&) = delete;

protected:
    /// `tagWays` is the number of tag ways (Wilkerson+ pairs frames and
    /// keeps half); the fault map covers every physical frame.
    L1State(const CacheOrganization& org, FaultMap faultMap, L2Cache& l2, std::uint32_t tagWays)
        : mapper_(org), tags_(org.sets(), tagWays), faultMap_(std::move(faultMap)), l2_(&l2) {
        VC_EXPECTS(faultMap_.lines() == org.lines());
        VC_EXPECTS(faultMap_.wordsPerLine() == org.wordsPerBlock());
    }
    ~L1State() = default;

    // ---- Policy hooks. The defaults describe a defect-free cache. ----

    /// Whether an aux structure is read on every access (FFW's FMAP and
    /// StoredPattern arrays sit next to the tags).
    static constexpr bool kProbesEveryAccess = false;
    /// Extra cycles on every access (Table III "Latency overhead").
    [[nodiscard]] std::uint32_t extraCycles() const noexcept { return 0; }

    /// The way holding `tag` in `set`; an associative hit becomes MRU.
    TagArray::Lookup findWay(std::uint32_t /*addr*/, std::uint32_t set, std::uint32_t tag) {
        const TagArray::Lookup hit = tags_.lookup(set, tag);
        if (hit.hit) tags_.touch(set, hit.way);
        return hit;
    }
    /// Whether the frame at (set, way) serves `word` on a tag hit.
    [[nodiscard]] bool holdsWord(std::uint32_t /*set*/, std::uint32_t /*way*/,
                                 std::uint32_t /*word*/) const {
        return true;
    }
    /// A word the frame cannot serve: probe a side structure, recording the
    /// probe in `result`. True if the side structure served the word.
    bool probeAux(std::uint32_t /*addr*/, AccessResult& /*result*/) { return false; }
    /// A read word-missed on a tag hit; the word came from the L2.
    void onWordMiss(std::uint32_t /*set*/, std::uint32_t /*way*/, std::uint32_t /*word*/,
                    std::uint32_t /*addr*/) {}
    /// A read line-missed; the block came from the L2. Allocate it.
    void fill(std::uint32_t /*addr*/, std::uint32_t set, std::uint32_t tag,
              std::uint32_t /*word*/, AccessResult& /*result*/) {
        tags_.fill(set, tag);
    }
    void onInvalidateAll() {}

    // ---- Helpers for policies ----

    [[nodiscard]] std::uint32_t frameOf(std::uint32_t set, std::uint32_t way) const {
        return mapper_.physicalLine(set, way);
    }
    [[nodiscard]] bool faulty(std::uint32_t set, std::uint32_t way, std::uint32_t word) const {
        return faultMap_.isFaulty(frameOf(set, way), word);
    }

    AddressMapper mapper_;
    TagArray tags_;
    FaultMap faultMap_;
    L2Cache* l2_;
    L1Stats stats_;
};

/// The cache itself: one class serves as data cache and as instruction
/// cache (a fetch is a read). Non-copyable, through L1State.
template <class Policy>
class L1Core final : public DataCacheScheme, public InstrCacheScheme, public Policy {
public:
    using Policy::Policy;

    AccessResult read(std::uint32_t addr) override {
        AccessResult result = begin();
        const std::uint32_t set = this->mapper_.set(addr);
        const std::uint32_t tag = this->mapper_.tag(addr);
        const std::uint32_t word = this->mapper_.wordOffset(addr);
        if (const TagArray::Lookup hit = this->findWay(addr, set, tag); hit.hit) {
            if (this->holdsWord(set, hit.way, word) || this->probeAux(addr, result)) {
                ++this->stats_.hits;
                result.l1Hit = true;
                return result;
            }
            ++this->stats_.wordMisses;
            readL2(addr, result);
            this->onWordMiss(set, hit.way, word, addr);
            return result;
        }
        ++this->stats_.lineMisses;
        readL2(addr, result);
        this->fill(addr, set, tag, word, result);
        return result;
    }

    AccessResult write(std::uint32_t addr) override {
        AccessResult result = begin();
        const std::uint32_t set = this->mapper_.set(addr);
        if (const TagArray::Lookup hit = this->findWay(addr, set, this->mapper_.tag(addr));
            hit.hit) {
            if (this->holdsWord(set, hit.way, this->mapper_.wordOffset(addr))) {
                ++this->stats_.hits;
                result.l1Hit = true;
            } else {
                // Keeps a side-structure copy coherent; writes never allocate.
                (void)this->probeAux(addr, result);
            }
        }
        // Write-through, no-write-allocate (Table I).
        const auto l2 = this->l2_->write(addr);
        result.l2Writes = 1;
        result.dram = l2.dram;
        return result;
    }

    AccessResult fetch(std::uint32_t addr) override { return L1Core::read(addr); }

    void invalidateAll() override {
        this->tags_.invalidateAll();
        this->onInvalidateAll();
    }

    [[nodiscard]] std::string_view name() const noexcept override { return this->label(); }
    [[nodiscard]] std::uint32_t latencyOverhead() const noexcept override {
        return this->extraCycles();
    }
    [[nodiscard]] const L1Stats& stats() const noexcept override { return this->stats_; }

private:
    AccessResult begin() {
        ++this->stats_.accesses;
        AccessResult result;
        result.latencyCycles = kL1HitLatencyCycles + this->extraCycles();
        result.auxProbe = Policy::kProbesEveryAccess;
        return result;
    }

    void readL2(std::uint32_t addr, AccessResult& result) {
        ++this->stats_.l2Reads;
        const auto l2 = this->l2_->read(addr);
        result.l2Reads = 1;
        result.dram = l2.dram;
        result.latencyCycles += l2.latencyCycles;
    }
};

} // namespace voltcache
