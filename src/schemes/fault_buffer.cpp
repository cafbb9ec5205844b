#include "schemes/fault_buffer.h"

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
    VC_EXPECTS(entries > 0);
    VC_EXPECTS(ways > 0 && entries % ways == 0);
    store_.assign(entries, Entry{});
}

WordBuffer::Entry* WordBuffer::findEntry(std::uint32_t wordAddr) {
    const std::uint32_t set = wordAddr % sets_;
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t way = 0; way < ways_; ++way) {
        Entry& entry = store_[base + way];
        if (entry.valid && entry.wordAddr == wordAddr) return &entry;
    }
    return nullptr;
}

bool WordBuffer::probe(std::uint32_t wordAddr) {
    ++probes_;
    if (Entry* entry = findEntry(wordAddr)) {
        entry->lastUse = ++useCounter_;
        ++hits_;
        return true;
    }
    return false;
}

void WordBuffer::insert(std::uint32_t wordAddr) {
    if (Entry* entry = findEntry(wordAddr)) {
        entry->lastUse = ++useCounter_;
        return;
    }
    const std::uint32_t set = wordAddr % sets_;
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    Entry* victim = &store_[base];
    for (std::uint32_t way = 0; way < ways_; ++way) {
        Entry& entry = store_[base + way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.lastUse < victim->lastUse) victim = &entry;
    }
    victim->valid = true;
    victim->wordAddr = wordAddr;
    victim->lastUse = ++useCounter_;
}

void WordBuffer::invalidate(std::uint32_t wordAddr) {
    if (Entry* entry = findEntry(wordAddr)) entry->valid = false;
}

void WordBuffer::clear() {
    for (auto& entry : store_) entry.valid = false;
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
    if (obs::TraceSink* sink = obs::traceSink()) {
        sink->record(probeEvent_, "fault-buffer",
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
