#include "serve/store.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "obs/metrics.h"

namespace voltcache::serve {

namespace {

constexpr char kSegmentMagic[8] = {'V', 'C', 'L', 'E', 'G', 'S', 'T', '1'};
constexpr std::size_t kSegmentHeaderBytes = sizeof(kSegmentMagic) + 4;
constexpr std::size_t kSegmentRecordBytes =
    sizeof(Digest256) + kLegPayloadBytes + sizeof(Digest256);

/// The index starts at this many cells and doubles to stay at most half
/// full.
constexpr std::size_t kMinIndexCells = 1024;

void appendU64(std::string& out, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
}

void appendF64(std::string& out, double value) {
    appendU64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t readU64(const char* data) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
                 << (8 * i);
    }
    return value;
}

double readF64(const char* data) { return std::bit_cast<double>(readU64(data)); }

Digest256 recordDigest(const Digest256& key, std::string_view payload) {
    Sha256 sha;
    sha.update(key.data(), key.size());
    sha.update(payload);
    return sha.finish();
}

} // namespace

std::string encodeLegResult(const LegResult& value) {
    std::string out;
    out.reserve(kLegPayloadBytes);
    out.push_back(value.linkFailed ? '\1' : '\0');
    appendF64(out, value.normRuntime);
    appendF64(out, value.l2PerKilo);
    appendF64(out, value.normEpi);
    appendF64(out, value.busyFrac);
    appendF64(out, value.ifetchFrac);
    appendF64(out, value.dmemFrac);
    appendF64(out, value.branchFrac);
    const LegForensics& f = value.forensics;
    for (const std::uint64_t v : f.ffwWindowSize) appendU64(out, v);
    for (const std::uint64_t v : f.ffwRecenterDistance) appendU64(out, v);
    appendU64(out, f.ffwRecenters);
    for (const std::uint64_t v : f.bbrChunkWords) appendU64(out, v);
    for (const std::uint64_t v : f.bbrDisplacement) appendU64(out, v);
    appendU64(out, f.bbrBlocksPlaced);
    out.push_back(f.hasFfw ? '\1' : '\0');
    out.push_back(f.hasBbr ? '\1' : '\0');
    out.push_back(static_cast<char>(f.failCause));
    return out;
}

bool decodeLegResult(std::string_view payload, LegResult& out) {
    if (payload.size() != kLegPayloadBytes) return false;
    const char* p = payload.data();
    out.linkFailed = *p++ != '\0';
    const auto f64 = [&p] {
        const double v = readF64(p);
        p += 8;
        return v;
    };
    const auto u64 = [&p] {
        const std::uint64_t v = readU64(p);
        p += 8;
        return v;
    };
    out.normRuntime = f64();
    out.l2PerKilo = f64();
    out.normEpi = f64();
    out.busyFrac = f64();
    out.ifetchFrac = f64();
    out.dmemFrac = f64();
    out.branchFrac = f64();
    LegForensics& f = out.forensics;
    for (std::uint64_t& v : f.ffwWindowSize) v = u64();
    for (std::uint64_t& v : f.ffwRecenterDistance) v = u64();
    f.ffwRecenters = u64();
    for (std::uint64_t& v : f.bbrChunkWords) v = u64();
    for (std::uint64_t& v : f.bbrDisplacement) v = u64();
    f.bbrBlocksPlaced = u64();
    f.hasFfw = *p++ != '\0';
    f.hasBbr = *p++ != '\0';
    const auto cause = static_cast<unsigned char>(*p++);
    if (cause >= 7) return false;
    f.failCause = static_cast<LinkFailCause>(cause);
    return true;
}

std::uint64_t LegStore::entryBytes(const LegResult& value) noexcept {
    return slotBytes(value.forensics != LegForensics{});
}

std::uint64_t LegStore::slotBytes(bool hasForensics) noexcept {
    static_assert(sizeof(Slot) <= 104, "store.h documents 104 B slots");
    // Two index cells per slot at the maximum load factor of one half.
    const std::uint64_t base = sizeof(Slot) + 2 * sizeof(std::uint32_t);
    return hasForensics ? base + sizeof(LegForensics) : base;
}

std::size_t LegStore::home(const Digest256& key) const noexcept {
    // The key is itself a cryptographic digest; the multiply only spreads
    // hand-made test keys that differ in one byte.
    std::uint64_t value = 0;
    std::memcpy(&value, key.data(), sizeof(value));
    return static_cast<std::size_t>((value * 0x9E3779B97F4A7C15ull) >> indexShift_);
}

std::size_t LegStore::findCell(const Digest256& key) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t cell = home(key);
    while (index_[cell] != kNil && slots_[index_[cell]].key != key) {
        cell = (cell + 1) & mask;
    }
    return cell;
}

void LegStore::eraseCell(std::size_t cell) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = cell;
    for (std::size_t next = (hole + 1) & mask; index_[next] != kNil; next = (next + 1) & mask) {
        // The entry at `next` may fill the hole unless its home lies
        // cyclically in (hole, next].
        const std::size_t want = home(slots_[index_[next]].key);
        if (((next - want) & mask) >= ((next - hole) & mask)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNil;
}

void LegStore::growIndex() {
    const std::size_t cells = index_.empty() ? kMinIndexCells : 2 * index_.size();
    index_.assign(cells, kNil);
    indexShift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(cells));
    for (std::uint32_t id = head_; id != kNil; id = slots_[id].next) {
        index_[findCell(slots_[id].key)] = id;
    }
}

void LegStore::unlink(std::uint32_t id) noexcept {
    const Slot& entry = slots_[id];
    (entry.prev == kNil ? head_ : slots_[entry.prev].next) = entry.next;
    (entry.next == kNil ? tail_ : slots_[entry.next].prev) = entry.prev;
}

void LegStore::pushFront(std::uint32_t id) noexcept {
    Slot& entry = slots_[id];
    entry.prev = kNil;
    entry.next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = id;
    head_ = id;
}

void LegStore::touch(std::uint32_t id) noexcept {
    if (head_ == id) return;
    unlink(id);
    pushFront(id);
}

void LegStore::assign(Slot& entry, const LegResult& value) {
    entry.linkFailed = value.linkFailed;
    entry.normRuntime = value.normRuntime;
    entry.l2PerKilo = value.l2PerKilo;
    entry.normEpi = value.normEpi;
    entry.busyFrac = value.busyFrac;
    entry.ifetchFrac = value.ifetchFrac;
    entry.dmemFrac = value.dmemFrac;
    entry.branchFrac = value.branchFrac;
    if (value.forensics == LegForensics{}) {
        releaseForensics(entry);
        return;
    }
    if (entry.forensics == kNil) entry.forensics = forensics_.allocate();
    forensics_[entry.forensics] = value.forensics;
}

void LegStore::releaseForensics(Slot& entry) {
    if (entry.forensics == kNil) return;
    forensics_.release(entry.forensics);
    entry.forensics = kNil;
}

LegStore::LegStore(const Options& options) : byteBudget_(options.byteBudget) {
    auto& registry = obs::MetricsRegistry::global();
    hitsMetric_ = registry.counter("serve.store.hits");
    missesMetric_ = registry.counter("serve.store.misses");
    insertsMetric_ = registry.counter("serve.store.inserts");
    evictionsMetric_ = registry.counter("serve.store.evictions");
    entriesMetric_ = registry.gauge("serve.store.entries");
    bytesMetric_ = registry.gauge("serve.store.bytes");
    if (!options.directory.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.directory, ec);
        if (ec) {
            throw std::runtime_error("store: cannot create directory '" +
                                     options.directory + "': " + ec.message());
        }
        const std::string path = options.directory + "/legs.vcs";
        loadSegment(path);
    }
}

LegStore::~LegStore() { flush(); }

void LegStore::loadSegment(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    bool truncate = false;
    if (in) {
        char header[kSegmentHeaderBytes];
        if (in.read(header, sizeof(header))) {
            std::uint32_t payloadBytes = 0;
            for (int i = 0; i < 4; ++i) {
                payloadBytes |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                                    header[sizeof(kSegmentMagic) + i]))
                                << (8 * i);
            }
            if (std::memcmp(header, kSegmentMagic, sizeof(kSegmentMagic)) != 0 ||
                payloadBytes != kLegPayloadBytes) {
                // Format change or foreign file: a cache segment is safe to
                // discard wholesale (cost = re-simulation).
                ++stats_.rejected;
                truncate = true;
            } else {
                std::string record(kSegmentRecordBytes, '\0');
                while (in.read(record.data(),
                               static_cast<std::streamsize>(record.size()))) {
                    Digest256 key{};
                    std::memcpy(key.data(), record.data(), key.size());
                    const std::string_view payload(record.data() + key.size(),
                                                   kLegPayloadBytes);
                    Digest256 expected{};
                    std::memcpy(expected.data(),
                                record.data() + key.size() + kLegPayloadBytes,
                                expected.size());
                    LegResult value;
                    if (recordDigest(key, payload) != expected ||
                        !decodeLegResult(payload, value)) {
                        ++stats_.rejected;
                        continue;
                    }
                    insertLocked(key, value, /*persist=*/false);
                    ++stats_.loaded;
                }
                // A partial trailing record (crash mid-append) is ignored.
            }
        }
        in.close();
    }
    openSegmentForAppend(path, truncate);
    obs::MetricsRegistry::global().add("serve.store.loaded", {}, stats_.loaded);
    obs::MetricsRegistry::global().add("serve.store.rejected", {}, stats_.rejected);
}

void LegStore::openSegmentForAppend(const std::string& path, bool truncate) {
    const bool fresh =
        truncate || !std::filesystem::exists(std::filesystem::path(path));
    const auto mode = std::ios::binary | (fresh ? std::ios::trunc : std::ios::app);
    segment_.open(path, mode);
    if (!segment_) throw std::runtime_error("store: cannot open '" + path + "'");
    if (fresh) {
        segment_.write(kSegmentMagic, sizeof(kSegmentMagic));
        std::uint32_t payloadBytes = kLegPayloadBytes;
        char size[4];
        for (int i = 0; i < 4; ++i) {
            size[i] = static_cast<char>((payloadBytes >> (8 * i)) & 0xFF);
        }
        segment_.write(size, sizeof(size));
        segment_.flush();
    }
}

bool LegStore::lookup(const Digest256& key, LegResult& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool hit = lookupLocked(key, out);
    (hit ? hitsMetric_ : missesMetric_).add();
    return hit;
}

std::size_t LegStore::lookupBatch(std::span<const Digest256> keys, std::span<LegResult> out,
                                  std::span<char> hits) {
    std::size_t found = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            hits[i] = lookupLocked(keys[i], out[i]) ? 1 : 0;
            found += static_cast<std::size_t>(hits[i]);
        }
    }
    hitsMetric_.add(found);
    missesMetric_.add(keys.size() - found);
    return found;
}

bool LegStore::lookupLocked(const Digest256& key, LegResult& out) {
    const std::uint32_t id = index_.empty() ? kNil : index_[findCell(key)];
    if (id == kNil) {
        ++stats_.misses;
        return false;
    }
    touch(id);
    const Slot& entry = slots_[id];
    out.linkFailed = entry.linkFailed;
    out.normRuntime = entry.normRuntime;
    out.l2PerKilo = entry.l2PerKilo;
    out.normEpi = entry.normEpi;
    out.busyFrac = entry.busyFrac;
    out.ifetchFrac = entry.ifetchFrac;
    out.dmemFrac = entry.dmemFrac;
    out.branchFrac = entry.branchFrac;
    out.forensics = entry.forensics != kNil ? forensics_[entry.forensics] : LegForensics{};
    ++stats_.hits;
    return true;
}

void LegStore::store(const Digest256& key, const LegResult& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(key, value, /*persist=*/true);
}

void LegStore::insertLocked(const Digest256& key, const LegResult& value,
                            bool persist) {
    if (2 * (stats_.entries + 1) > index_.size()) growIndex();
    const std::size_t cell = findCell(key);
    if (index_[cell] != kNil) {
        const std::uint32_t id = index_[cell];
        Slot& entry = slots_[id];
        touch(id);
        bytes_ -= slotBytes(entry.forensics != kNil);
        assign(entry, value);
        bytes_ += slotBytes(entry.forensics != kNil);
        stats_.bytes = bytes_;
        return;
    }
    const std::uint32_t id = slots_.allocate();
    Slot& entry = slots_[id];
    entry.key = key;
    assign(entry, value);
    pushFront(id);
    index_[cell] = id;
    bytes_ += entryBytes(value);
    ++stats_.entries;
    ++stats_.inserts;
    while (bytes_ > byteBudget_ && stats_.entries > 1) evictLocked();
    stats_.bytes = bytes_;
    insertsMetric_.add();
    entriesMetric_.set(static_cast<double>(stats_.entries));
    bytesMetric_.set(static_cast<double>(stats_.bytes));
    if (persist && segment_.is_open()) {
        const std::string payload = encodeLegResult(value);
        const Digest256 digest = recordDigest(key, payload);
        segment_.write(reinterpret_cast<const char*>(key.data()),
                       static_cast<std::streamsize>(key.size()));
        segment_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        segment_.write(reinterpret_cast<const char*>(digest.data()),
                       static_cast<std::streamsize>(digest.size()));
    }
}

void LegStore::evictLocked() {
    const std::uint32_t id = tail_;
    Slot& victim = slots_[id];
    bytes_ -= slotBytes(victim.forensics != kNil);
    unlink(id);
    eraseCell(findCell(victim.key));
    releaseForensics(victim);
    slots_.release(id);
    --stats_.entries;
    ++stats_.evictions;
    evictionsMetric_.add();
}

void LegStore::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (segment_.is_open()) segment_.flush();
}

LegStore::Stats LegStore::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace voltcache::serve
