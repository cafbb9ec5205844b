#include "schemes/fault_buffer.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"
#include "obs/trace.h"

namespace voltcache {
namespace {

// The trace sink stores name pointers without copying, so the event name
// must be a literal, not config.name.c_str() (the scheme can be destroyed
// before the trace is exported).
const char* probeEventFor(const FaultBufferConfig& config) {
    return config.ways == config.entries ? "fba.probe" : "idc.probe";
}

} // namespace

WordBuffer::WordBuffer(std::uint32_t entries, std::uint32_t ways)
    : entries_(entries), ways_(ways), sets_(entries / ways) {
    VC_EXPECTS(entries > 0 && entries < kNil);
    VC_EXPECTS(ways > 0 && entries % ways == 0);
    // At most half-full, so linear-probe runs stay short.
    const std::uint32_t cells = std::bit_ceil(2 * entries);
    indexMask_ = cells - 1;
    indexShift_ = 32 - static_cast<std::uint32_t>(std::countr_zero(cells));
    slots_.resize(entries);
    index_.resize(cells);
    lists_.resize(sets_);
    clear();
}

std::uint32_t WordBuffer::findCell(std::uint32_t wordAddr) const noexcept {
    std::uint32_t cell = home(wordAddr);
    while (index_[cell] != kNil && slots_[index_[cell]].wordAddr != wordAddr) {
        cell = (cell + 1) & indexMask_;
    }
    return cell;
}

void WordBuffer::eraseCell(std::uint32_t cell) noexcept {
    std::uint32_t hole = cell;
    for (std::uint32_t next = (hole + 1) & indexMask_; index_[next] != kNil;
         next = (next + 1) & indexMask_) {
        // The entry at `next` may fill the hole unless its home lies
        // cyclically in (hole, next].
        const std::uint32_t want = home(slots_[index_[next]].wordAddr);
        if (((next - want) & indexMask_) >= ((next - hole) & indexMask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNil;
}

void WordBuffer::unlink(SetList& set, Link slot) noexcept {
    const Slot& s = slots_[slot];
    (s.prev == kNil ? set.head : slots_[s.prev].next) = s.next;
    (s.next == kNil ? set.tail : slots_[s.next].prev) = s.prev;
}

void WordBuffer::pushFront(SetList& set, Link slot) noexcept {
    Slot& s = slots_[slot];
    s.prev = kNil;
    s.next = set.head;
    (set.head == kNil ? set.tail : slots_[set.head].prev) = slot;
    set.head = slot;
}

void WordBuffer::touch(SetList& set, Link slot) noexcept {
    if (set.head == slot) return;
    unlink(set, slot);
    pushFront(set, slot);
}

bool WordBuffer::probe(std::uint32_t wordAddr) {
    ++probes_;
    const Link slot = index_[findCell(wordAddr)];
    if (slot == kNil) return false;
    touch(lists_[wordAddr % sets_], slot);
    ++hits_;
    return true;
}

void WordBuffer::insert(std::uint32_t wordAddr) {
    SetList& set = lists_[wordAddr % sets_];
    Link slot = index_[findCell(wordAddr)];
    if (slot != kNil) {
        touch(set, slot);
        return;
    }
    if (set.size == ways_) {
        slot = set.tail;
        unlink(set, slot);
        eraseCell(findCell(slots_[slot].wordAddr));
    } else {
        // A set with room implies a free slot somewhere in the buffer.
        slot = freeHead_;
        freeHead_ = slots_[slot].next;
        ++set.size;
    }
    slots_[slot].wordAddr = wordAddr;
    pushFront(set, slot);
    // The eviction may have shifted entries, so look the cell up afresh.
    index_[findCell(wordAddr)] = slot;
}

void WordBuffer::invalidate(std::uint32_t wordAddr) {
    const std::uint32_t cell = findCell(wordAddr);
    const Link slot = index_[cell];
    if (slot == kNil) return;
    SetList& set = lists_[wordAddr % sets_];
    unlink(set, slot);
    --set.size;
    eraseCell(cell);
    slots_[slot].next = freeHead_;
    freeHead_ = slot;
}

void WordBuffer::clear() {
    std::fill(index_.begin(), index_.end(), kNil);
    std::fill(lists_.begin(), lists_.end(), SetList{});
    for (std::uint32_t slot = 0; slot < entries_; ++slot) {
        slots_[slot].next = slot + 1 < entries_ ? static_cast<Link>(slot + 1) : kNil;
    }
    freeHead_ = 0;
}

FaultBufferConfig fbaConfig(std::uint32_t entries) {
    return FaultBufferConfig{entries, entries, entries >= 1024 ? "fba+" : "fba"};
}

FaultBufferConfig idcConfig(std::uint32_t entries, std::uint32_t ways) {
    return FaultBufferConfig{entries, ways, entries >= 1024 ? "idc+" : "idc"};
}

FaultBufferPolicy::FaultBufferPolicy(const CacheOrganization& org, FaultMap faultMap,
                                     L2Cache& l2, FaultBufferConfig config)
    : SimpleWordDisablePolicy(org, std::move(faultMap), l2),
      config_(std::move(config)),
      buffer_(config_.entries, config_.ways),
      probeEvent_(probeEventFor(config_)) {}

bool FaultBufferPolicy::probeAux(std::uint32_t addr, AccessResult& result) {
    result.auxProbe = true;
    result.auxHit = buffer_.probe(addr / 4);
    if (obs::instantEventsOn()) {
        obs::traceInstant(probeEvent_, "fault-buffer",
                          {{"word_addr", addr / 4}, {"hit", result.auxHit ? 1 : 0}});
    }
    return result.auxHit;
}

void FaultBufferPolicy::fill(std::uint32_t addr, std::uint32_t set, std::uint32_t tag,
                             std::uint32_t word, AccessResult& result) {
    const auto fill = tags_.fill(set, tag);
    const std::uint32_t frame = frameOf(set, fill.way);
    if (fill.evictedValid) {
        // Buffer entries are substitute storage for the evicted line's
        // defective words: they leave with it.
        const std::uint32_t evictedBlock = fill.evictedTag * mapper_.sets() + set;
        for (std::uint32_t w = 0; w < mapper_.wordsPerBlock(); ++w) {
            if (faultMap_.isFaulty(frame, w)) {
                buffer_.invalidate(evictedBlock * mapper_.wordsPerBlock() + w);
            }
        }
    }
    // If the fill was triggered by a defective word, capture it now — the
    // block just travelled past the buffer.
    if (faultMap_.isFaulty(frame, word)) {
        result.auxProbe = true;
        buffer_.insert(addr / 4);
    }
}

} // namespace voltcache
