// Tests for the fault-tolerance schemes (paper Sections III-IV), including
// a reconstruction of the paper's Fig. 4 word-remap example.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "schemes/bbr.h"
#include "schemes/conventional.h"
#include "schemes/factory.h"
#include "schemes/fault_buffer.h"
#include "schemes/ffw.h"
#include "schemes/wilkerson.h"
#include "schemes/word_disable.h"

namespace voltcache {
namespace {

constexpr std::uint32_t kBlock = 32;

/// Address helper for the paper's L1 geometry: (tag, set, word) -> byte addr.
std::uint32_t addrOf(std::uint32_t tag, std::uint32_t set, std::uint32_t word) {
    return (tag * 256 + set) * kBlock + word * 4;
}

FaultMap cleanMap() { return FaultMap(1024, 8); }

// ---- Conventional ----

TEST(Conventional, ReadMissFillHit) {
    L2Cache l2;
    ConventionalCache dcache(CacheOrganization{}, l2);
    const auto miss = dcache.read(addrOf(1, 0, 0));
    EXPECT_FALSE(miss.l1Hit);
    EXPECT_EQ(miss.l2Reads, 1u);
    EXPECT_EQ(miss.latencyCycles, kL1HitLatencyCycles + 10 + 100);
    const auto hit = dcache.read(addrOf(1, 0, 5));
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.latencyCycles, kL1HitLatencyCycles);
    EXPECT_EQ(dcache.stats().hits, 1u);
    EXPECT_EQ(dcache.stats().lineMisses, 1u);
}

TEST(Conventional, WriteThroughAlwaysReachesL2) {
    L2Cache l2;
    ConventionalCache dcache(CacheOrganization{}, l2);
    (void)dcache.read(addrOf(1, 0, 0));
    const auto write = dcache.write(addrOf(1, 0, 1));
    EXPECT_TRUE(write.l1Hit);
    EXPECT_EQ(write.l2Writes, 1u);
    const auto writeMiss = dcache.write(addrOf(2, 0, 1));
    EXPECT_FALSE(writeMiss.l1Hit); // no-write-allocate
    EXPECT_EQ(writeMiss.l2Writes, 1u);
    EXPECT_EQ(l2.stats().writes, 2u);
}

TEST(Conventional, LatencyOverheadParameter) {
    L2Cache l2;
    ConventionalCache icache(CacheOrganization{}, l2, 1, "8T");
    (void)icache.fetch(addrOf(0, 0, 0));
    const auto hit = icache.fetch(addrOf(0, 0, 1));
    EXPECT_EQ(hit.latencyCycles, kL1HitLatencyCycles + 1);
}

// ---- Simple word disable ----

TEST(SimpleWdis, FaultyWordAlwaysMissesToL2) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 3); // frame 0 = (set 0, way 0)
    SimpleWordDisableCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 0)); // fill way 0
    const auto first = dcache.read(addrOf(0, 0, 3));
    EXPECT_FALSE(first.l1Hit);
    EXPECT_EQ(first.l2Reads, 1u);
    const auto second = dcache.read(addrOf(0, 0, 3));
    EXPECT_FALSE(second.l1Hit) << "defective words can never be cached";
    EXPECT_EQ(dcache.stats().wordMisses, 2u);
}

TEST(SimpleWdis, CleanWordsOfFaultyLineStillHit) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 3);
    SimpleWordDisableCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 0));
    EXPECT_TRUE(dcache.read(addrOf(0, 0, 4)).l1Hit);
    EXPECT_EQ(dcache.latencyOverhead(), 0u);
}

TEST(SimpleWdis, ICacheVariantMatchesSemantics) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 2);
    SimpleWordDisableCache icache(CacheOrganization{}, map, l2);
    (void)icache.fetch(addrOf(0, 0, 0));
    EXPECT_FALSE(icache.fetch(addrOf(0, 0, 2)).l1Hit);
    EXPECT_TRUE(icache.fetch(addrOf(0, 0, 1)).l1Hit);
}

// ---- FFW ----

TEST(Ffw, Figure4RemapExample) {
    // Reconstruct Fig. 4: a frame whose fault-free window holds logic words
    // 2..6 (stored pattern 01111100) and whose first two physical entries
    // are fault-free. Word offset 0x3 must remap to physical entry 0x1.
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 2); // frame 0: entries 2, 4, 6 defective -> k = 5
    map.setFaulty(0, 4);
    map.setFaulty(0, 6);
    FfwDCache dcache(CacheOrganization{}, map, l2);
    // Fill (set 0, way 0) centered on word 4 -> window = words 2..6.
    (void)dcache.read(addrOf(0, 0, 4));
    EXPECT_EQ(dcache.windowOf(0, 0).start, 2u);
    EXPECT_EQ(dcache.windowOf(0, 0).length, 5u);
    EXPECT_EQ(dcache.storedPattern(0, 0), 0b01111100u);
    EXPECT_EQ(dcache.physicalEntryFor(0, 0, 3), 1u); // the Fig. 4 answer
    // And the full remap: logic words 2,3,4,5,6 -> entries 0,1,3,5,7.
    const std::uint32_t expected[] = {0, 1, 3, 5, 7};
    for (std::uint32_t w = 2; w <= 6; ++w) {
        EXPECT_EQ(dcache.physicalEntryFor(0, 0, w), expected[w - 2]);
    }
}

TEST(Ffw, WordInsideWindowHitsAtBaseLatency) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 0);
    FfwDCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 4));
    const auto hit = dcache.read(addrOf(0, 0, 5));
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.latencyCycles, kL1HitLatencyCycles); // zero-overhead claim
    EXPECT_EQ(dcache.latencyOverhead(), 0u);
}

TEST(Ffw, WordMissRecentersWindow) {
    L2Cache l2;
    FaultMap map = cleanMap();
    // Frame 0: three faults -> k = 5.
    map.setFaulty(0, 1);
    map.setFaulty(0, 3);
    map.setFaulty(0, 5);
    FfwDCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 0)); // window centered on 0 -> [0, 5)
    EXPECT_EQ(dcache.windowOf(0, 0).start, 0u);
    // Word 7 misses (tag hit, outside window) and recenters: start
    // clamps to 8-k = 3 -> window [3, 8).
    const auto miss = dcache.read(addrOf(0, 0, 7));
    EXPECT_FALSE(miss.l1Hit);
    EXPECT_EQ(miss.l2Reads, 1u);
    EXPECT_EQ(dcache.stats().wordMisses, 1u);
    EXPECT_EQ(dcache.windowOf(0, 0).start, 3u);
    EXPECT_TRUE(dcache.read(addrOf(0, 0, 7)).l1Hit);
    EXPECT_TRUE(dcache.read(addrOf(0, 0, 4)).l1Hit);
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 0)).l1Hit); // left behind
}

TEST(Ffw, MissingWordStandsInTheMiddle) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 0);
    map.setFaulty(0, 1);
    map.setFaulty(0, 2); // k = 5
    FfwDCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 0)); // centered on 0, clamped -> [0, 5)
    (void)dcache.read(addrOf(0, 0, 5)); // word miss on 5 (paper Fig. 5)
    // half = (5-1)/2 = 2 -> window [3, 8): word 5 in the middle.
    EXPECT_EQ(dcache.windowOf(0, 0).start, 3u);
}

TEST(Ffw, FirstKFillPolicy) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 6); // k = 7
    FfwConfig config;
    config.fillPolicy = FfwConfig::FillPolicy::FirstK;
    FfwDCache dcache(CacheOrganization{}, map, l2, config);
    (void)dcache.read(addrOf(0, 0, 7)); // fill; default pattern = words 0..6
    EXPECT_EQ(dcache.windowOf(0, 0).start, 0u);
    EXPECT_EQ(dcache.windowOf(0, 0).length, 7u);
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 7)).l1Hit); // outside default
}

TEST(Ffw, StaticWindowAblationNeverMoves) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 7); // k = 7
    FfwConfig config;
    config.recenterOnWordMiss = false;
    config.fillPolicy = FfwConfig::FillPolicy::FirstK;
    FfwDCache dcache(CacheOrganization{}, map, l2, config);
    (void)dcache.read(addrOf(0, 0, 0));
    (void)dcache.read(addrOf(0, 0, 7));
    EXPECT_EQ(dcache.windowOf(0, 0).start, 0u);
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 7)).l1Hit);
}

TEST(Ffw, WritesAreWriteThroughAndDoNotMoveWindow) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 0); // k = 7
    FfwDCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 1));
    const auto window = dcache.windowOf(0, 0);
    const auto write = dcache.write(addrOf(0, 0, 7));
    EXPECT_EQ(write.l2Writes, 1u);
    EXPECT_EQ(dcache.windowOf(0, 0).start, window.start);
    // Write inside the window is an L1 hit (and still writes through).
    const auto hitWrite = dcache.write(addrOf(0, 0, 2));
    EXPECT_TRUE(hitWrite.l1Hit);
    EXPECT_EQ(hitWrite.l2Writes, 1u);
}

TEST(Ffw, FullyDefectiveFramesAreNeverAllocated) {
    L2Cache l2;
    FaultMap map = cleanMap();
    for (std::uint32_t w = 0; w < 8; ++w) map.setFaulty(0, w); // frame 0 dead
    FfwDCache dcache(CacheOrganization{}, map, l2);
    // Fill four distinct tags in set 0: the dead way 0 must be skipped, so
    // tag 1 is still resident after three more fills.
    for (std::uint32_t tag = 1; tag <= 3; ++tag) (void)dcache.read(addrOf(tag, 0, 0));
    EXPECT_TRUE(dcache.read(addrOf(1, 0, 0)).l1Hit);
    EXPECT_TRUE(dcache.read(addrOf(2, 0, 0)).l1Hit);
    EXPECT_TRUE(dcache.read(addrOf(3, 0, 0)).l1Hit);
}

TEST(Ffw, FullyDefectiveSetServesFromL2) {
    CacheOrganization org;
    org.sizeBytes = 1024; // 8 lines, 2 sets, 4 ways — small for the test
    org.associativity = 4;
    L2Cache l2;
    FaultMap map(org.lines(), 8);
    const AddressMapper mapper(org);
    for (std::uint32_t way = 0; way < 4; ++way) {
        for (std::uint32_t w = 0; w < 8; ++w) map.setFaulty(mapper.physicalLine(0, way), w);
    }
    FfwDCache dcache(org, map, l2);
    const auto first = dcache.read(0);
    EXPECT_FALSE(first.l1Hit);
    const auto second = dcache.read(0);
    EXPECT_FALSE(second.l1Hit) << "set is disabled; every access goes to L2";
    EXPECT_EQ(second.l2Reads, 1u);
}

TEST(Ffw, CleanFrameBehavesConventionally) {
    L2Cache l2;
    FfwDCache dcache(CacheOrganization{}, cleanMap(), l2);
    (void)dcache.read(addrOf(0, 0, 0));
    for (std::uint32_t w = 0; w < 8; ++w) {
        EXPECT_TRUE(dcache.read(addrOf(0, 0, w)).l1Hit) << w;
    }
}

// ---- Wilkerson+ ----

TEST(Wilkerson, CapacityHalvesToTwoLogicalWays) {
    L2Cache l2;
    WilkersonCache dcache(CacheOrganization{}, cleanMap(), l2);
    // Fill three tags in one set; only two logical ways exist, so the
    // first is evicted.
    (void)dcache.read(addrOf(1, 0, 0));
    (void)dcache.read(addrOf(2, 0, 0));
    (void)dcache.read(addrOf(3, 0, 0));
    EXPECT_FALSE(dcache.read(addrOf(1, 0, 0)).l1Hit);
}

TEST(Wilkerson, RepairableWordHits) {
    L2Cache l2;
    FaultMap map = cleanMap();
    // Logical way 0 of set 0 pairs frames (set0,way0)=line 0 and
    // (set0,way1)=line 256. Fault word 3 in only one member: repairable.
    map.setFaulty(0, 3);
    WilkersonCache dcache(CacheOrganization{}, map, l2);
    (void)dcache.read(addrOf(0, 0, 3));
    const auto hit = dcache.read(addrOf(0, 0, 3));
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.latencyCycles, kL1HitLatencyCycles + 1); // +1 cycle combining mux
}

TEST(Wilkerson, UnrepairableWordFallsBackToWordDisable) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 3);   // pair member A
    map.setFaulty(256, 3); // pair member B, same position
    WilkersonCache dcache(CacheOrganization{}, map, l2);
    EXPECT_EQ(dcache.pairing().unrepairableCount(), 1u);
    (void)dcache.read(addrOf(0, 0, 0));
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 3)).l1Hit);
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 3)).l1Hit);
    EXPECT_TRUE(dcache.read(addrOf(0, 0, 4)).l1Hit);
}

TEST(Wilkerson, UnrepairableCountGrowsWithDefectDensity) {
    Rng rng(3);
    const FaultMapGenerator generator;
    using voltcache::literals::operator""_mV;
    const FaultMap at480 = generator.generate(rng, 480_mV, 1024, 8);
    const FaultMap at400 = generator.generate(rng, 400_mV, 1024, 8);
    const WilkersonPairing pairing480(CacheOrganization{}, at480);
    const WilkersonPairing pairing400(CacheOrganization{}, at400);
    EXPECT_GT(pairing400.unrepairableCount(), pairing480.unrepairableCount());
    // This is why plain word-disable cannot hold 99.9% yield below 480mV.
    EXPECT_GT(pairing400.unrepairableCount(), 0u);
}

// ---- FBA / IDC ----

TEST(FaultBuffer, FaultyWordInstalledThenServedFromBuffer) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 3);
    FaultBufferCache dcache(CacheOrganization{}, map, l2, fbaConfig(64));
    const auto fill = dcache.read(addrOf(0, 0, 3)); // line fill + buffer install
    EXPECT_FALSE(fill.l1Hit);
    const auto buffered = dcache.read(addrOf(0, 0, 3));
    EXPECT_TRUE(buffered.l1Hit);
    EXPECT_TRUE(buffered.auxHit);
    EXPECT_EQ(buffered.l2Reads, 0u);
    EXPECT_EQ(buffered.latencyCycles, kL1HitLatencyCycles + 1);
}

TEST(FaultBuffer, EveryAccessPaysTheExtraCycle) {
    L2Cache l2;
    FaultMap map = cleanMap();
    FaultBufferCache dcache(CacheOrganization{}, map, l2, fbaConfig(64));
    (void)dcache.read(addrOf(0, 0, 0));
    EXPECT_EQ(dcache.read(addrOf(0, 0, 1)).latencyCycles, kL1HitLatencyCycles + 1);
}

TEST(FaultBuffer, CapacityEvictsLru) {
    L2Cache l2;
    FaultMap map = cleanMap();
    // Fault word 0 of many consecutive sets' way-0 frames.
    for (std::uint32_t set = 0; set < 8; ++set) map.setFaulty(set, 0);
    FaultBufferCache dcache(CacheOrganization{}, map, l2, fbaConfig(4));
    for (std::uint32_t set = 0; set < 8; ++set) (void)dcache.read(addrOf(0, set, 0));
    // First installed word fell out of the 4-entry buffer.
    EXPECT_FALSE(dcache.read(addrOf(0, 0, 0)).l1Hit);
    // A recently installed one is still buffered.
    EXPECT_TRUE(dcache.read(addrOf(0, 7, 0)).l1Hit);
}

TEST(FaultBuffer, IdcIsSetAssociative) {
    const auto config = idcConfig(64, 8);
    EXPECT_EQ(config.entries, 64u);
    EXPECT_EQ(config.ways, 8u);
    WordBuffer buffer(config.entries, config.ways);
    // 9 conflicting words in one 8-way set: the first is evicted.
    for (std::uint32_t i = 0; i <= 8; ++i) buffer.insert(i * 8); // sets = 8
    EXPECT_FALSE(buffer.probe(0));
    EXPECT_TRUE(buffer.probe(8 * 8));
}

TEST(FaultBuffer, ICacheVariant) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 5);
    FaultBufferCache icache(CacheOrganization{}, map, l2, idcConfig(64, 8));
    (void)icache.fetch(addrOf(0, 0, 5));
    EXPECT_TRUE(icache.fetch(addrOf(0, 0, 5)).l1Hit);
    EXPECT_EQ(icache.latencyOverhead(), 1u);
}

// ---- BBR ----

TEST(Bbr, DirectMappedUsesTagLsbsAsWay) {
    L2Cache l2;
    BbrICache icache(CacheOrganization{}, cleanMap(), l2, BbrICache::Mode::DirectMapped);
    // Two addresses with the same set but different tag LSBs coexist.
    (void)icache.fetch(addrOf(0, 0, 0));
    (void)icache.fetch(addrOf(1, 0, 0));
    EXPECT_TRUE(icache.fetch(addrOf(0, 0, 0)).l1Hit);
    EXPECT_TRUE(icache.fetch(addrOf(1, 0, 0)).l1Hit);
    // Same tag LSBs (tag 4 ≡ 0 mod 4): conflict evicts.
    (void)icache.fetch(addrOf(4, 0, 0));
    EXPECT_FALSE(icache.fetch(addrOf(0, 0, 0)).l1Hit);
}

TEST(Bbr, FetchOfDefectiveWordThrows) {
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 2); // frame 0 = DM slot of (set 0, way 0)
    BbrICache icache(CacheOrganization{}, map, l2);
    EXPECT_THROW((void)icache.fetch(addrOf(0, 0, 2)), PlacementViolation);
    EXPECT_NO_THROW((void)icache.fetch(addrOf(0, 0, 3)));
}

TEST(Bbr, SetAssociativeModeIsConventional) {
    L2Cache l2;
    BbrICache icache(CacheOrganization{}, cleanMap(), l2, BbrICache::Mode::SetAssociative);
    for (std::uint32_t tag = 0; tag < 4; ++tag) (void)icache.fetch(addrOf(tag, 0, 0));
    for (std::uint32_t tag = 0; tag < 4; ++tag) {
        EXPECT_TRUE(icache.fetch(addrOf(tag, 0, 0)).l1Hit) << tag;
    }
    EXPECT_EQ(icache.latencyOverhead(), 0u);
}

TEST(Bbr, ModeSwitchInvalidates) {
    L2Cache l2;
    BbrICache icache(CacheOrganization{}, cleanMap(), l2, BbrICache::Mode::SetAssociative);
    (void)icache.fetch(addrOf(0, 0, 0));
    icache.switchMode(BbrICache::Mode::DirectMapped);
    EXPECT_FALSE(icache.fetch(addrOf(0, 0, 0)).l1Hit);
}

// ---- Factory ----

TEST(Factory, BuildsEveryKind) {
    L2Cache l2;
    const FaultMap map = cleanMap();
    for (const SchemeKind kind :
         {SchemeKind::DefectFree, SchemeKind::Conventional760, SchemeKind::Robust8T,
          SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
          SchemeKind::IdcPlus, SchemeKind::FfwBbr}) {
        const SchemePair pair = makeSchemes(kind, CacheOrganization{}, map, map, l2);
        ASSERT_NE(pair.dcache, nullptr) << schemeName(kind);
        ASSERT_NE(pair.icache, nullptr) << schemeName(kind);
        EXPECT_GE(pair.l1StaticFactor, 1.0) << schemeName(kind);
        EXPECT_EQ(pair.needsBbrLinking, kind == SchemeKind::FfwBbr) << schemeName(kind);
    }
}

TEST(Factory, LatencyOverheadsMatchTableIII) {
    L2Cache l2;
    const FaultMap map = cleanMap();
    const CacheOrganization org;
    EXPECT_EQ(makeSchemes(SchemeKind::Robust8T, org, map, map, l2).dcache->latencyOverhead(),
              1u);
    EXPECT_EQ(
        makeSchemes(SchemeKind::SimpleWordDisable, org, map, map, l2).dcache->latencyOverhead(),
        0u);
    EXPECT_EQ(makeSchemes(SchemeKind::FfwBbr, org, map, map, l2).dcache->latencyOverhead(),
              0u);
    EXPECT_EQ(makeSchemes(SchemeKind::FbaPlus, org, map, map, l2).dcache->latencyOverhead(),
              1u);
    EXPECT_EQ(
        makeSchemes(SchemeKind::WilkersonPlus, org, map, map, l2).icache->latencyOverhead(),
        1u);
}


// ---- FBA/IDC entry lifetime ----

TEST(FaultBuffer, EntriesDieWithTheirLine) {
    // Buffer entries are substitute storage for resident lines: when the
    // line is evicted, the entry must go with it (no victim-cache effect).
    L2Cache l2;
    FaultMap map = cleanMap();
    map.setFaulty(0, 3); // (set 0, way 0) word 3
    FaultBufferCache dcache(CacheOrganization{}, map, l2, fbaConfig(64));
    (void)dcache.read(addrOf(0, 0, 3)); // fill way 0, install word
    EXPECT_TRUE(dcache.read(addrOf(0, 0, 3)).l1Hit);
    // Evict tag 0 from way 0: fill four more tags into set 0 and touch them
    // so LRU pushes tag 0 out.
    for (std::uint32_t tag = 1; tag <= 4; ++tag) (void)dcache.read(addrOf(tag, 0, 0));
    // Tag 0 is gone; re-filling it must re-miss the faulty word (the buffer
    // entry was invalidated on eviction).
    const auto refill = dcache.read(addrOf(0, 0, 3));
    EXPECT_FALSE(refill.l1Hit);
    EXPECT_EQ(refill.l2Reads, 1u);
}

TEST(FaultBuffer, WordBufferInvalidateIsIdempotent) {
    WordBuffer buffer(8, 8);
    buffer.insert(42);
    EXPECT_TRUE(buffer.probe(42));
    buffer.invalidate(42);
    EXPECT_FALSE(buffer.probe(42));
    buffer.invalidate(42); // no-op
    EXPECT_FALSE(buffer.probe(42));
}

// ---- Per-access differential digests ----
//
// One fixed-seed 400mV chip drives every scheme through a ~50k-access
// stream; every AccessResult field, the final L1Stats and FFW's recenter
// histogram are hashed. The figure goldens only check end-of-leg
// aggregates; these digests fail on any per-access drift. They were
// captured before the ten scheme classes became one L1 core.

constexpr std::size_t kStreamAccesses = 50000;

struct StreamAccess {
    std::uint32_t addr = 0;
    bool write = false;
};

/// Mostly sequential words, jumps inside a 24KB hot region and rare jumps
/// across 256KB: lines fill and evict, words miss, windows recenter.
std::vector<StreamAccess> accessStream(std::uint64_t seed, bool writes) {
    Rng rng(seed);
    std::vector<StreamAccess> stream;
    stream.reserve(kStreamAccesses);
    std::uint32_t addr = 0;
    for (std::size_t i = 0; i < kStreamAccesses; ++i) {
        const std::uint64_t roll = rng.nextBelow(100);
        if (roll < 70) {
            addr += 4;
        } else if (roll < 92) {
            addr = static_cast<std::uint32_t>(rng.nextBelow(24 * 1024 / 4)) * 4;
        } else {
            addr = static_cast<std::uint32_t>(rng.nextBelow(256 * 1024 / 4)) * 4;
        }
        stream.push_back({addr, writes && rng.nextBelow(4) == 0});
    }
    return stream;
}

void hashResult(HashWriter& h, const AccessResult& r) {
    h.u32(r.latencyCycles);
    h.u32(r.l2Reads);
    h.u32(r.l2Writes);
    h.boolean(r.l1Hit);
    h.boolean(r.dram);
    h.boolean(r.auxProbe);
    h.boolean(r.auxHit);
}

void hashStats(HashWriter& h, const L1Stats& s) {
    h.u64(s.accesses);
    h.u64(s.hits);
    h.u64(s.lineMisses);
    h.u64(s.wordMisses);
    h.u64(s.l2Reads);
}

void driveData(HashWriter& h, DataCacheScheme& dcache) {
    for (const StreamAccess& a : accessStream(11, true)) {
        hashResult(h, a.write ? dcache.write(a.addr) : dcache.read(a.addr));
    }
    hashStats(h, dcache.stats());
    if (const auto* ffw = dynamic_cast<const FfwDCache*>(&dcache)) {
        for (const std::uint64_t count : ffw->recenterDistances()) h.u64(count);
    }
}

void driveInstr(HashWriter& h, InstrCacheScheme& icache) {
    for (const StreamAccess& a : accessStream(12, false)) {
        try {
            hashResult(h, icache.fetch(a.addr));
        } catch (const PlacementViolation&) {
            h.u8(0xEE); // BBR: the stream was not linked against this map
        }
    }
    hashStats(h, icache.stats());
}

TEST(SchemeDigests, PerAccessOutcomesMatchPinnedDigests) {
    Rng rng(2024);
    const FaultMapGenerator generator;
    using voltcache::literals::operator""_mV;
    const CacheOrganization org;
    const FaultMap dmap = generator.generate(rng, 400_mV, org.lines(), org.wordsPerBlock());
    const FaultMap imap = generator.generate(rng, 400_mV, org.lines(), org.wordsPerBlock());

    std::vector<std::pair<std::string, std::string>> actual;
    for (const SchemeKind kind :
         {SchemeKind::DefectFree, SchemeKind::Conventional760, SchemeKind::Robust8T,
          SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
          SchemeKind::IdcPlus, SchemeKind::FfwBbr}) {
        L2Cache l2;
        HashWriter h;
        const SchemePair pair = makeSchemes(kind, org, dmap, imap, l2);
        driveData(h, *pair.dcache);
        driveInstr(h, *pair.icache);
        actual.emplace_back(std::string(schemeName(kind)), digestToHex(h.finish()));
    }
    // Small buffers, so capacity evictions and line-eviction invalidates fire.
    for (const FaultBufferConfig& config : {fbaConfig(64), idcConfig(64, 8)}) {
        L2Cache l2;
        HashWriter h;
        FaultBufferCache dcache(org, dmap, l2, config);
        FaultBufferCache icache(org, imap, l2, config);
        driveData(h, dcache);
        driveInstr(h, icache);
        actual.emplace_back(config.name, digestToHex(h.finish()));
    }
    // The two static-window ablations of bench_ablation.
    FfwConfig staticFirstK;
    staticFirstK.fillPolicy = FfwConfig::FillPolicy::FirstK;
    staticFirstK.recenterOnWordMiss = false;
    FfwConfig staticCentered;
    staticCentered.recenterOnWordMiss = false;
    for (const auto& [label, config] : {std::pair{"ffw/static-first-k", staticFirstK},
                                        std::pair{"ffw/static-centered", staticCentered}}) {
        L2Cache l2;
        HashWriter h;
        FfwDCache dcache(org, dmap, l2, config);
        driveData(h, dcache);
        actual.emplace_back(label, digestToHex(h.finish()));
    }

    const std::vector<std::pair<std::string, std::string>> expected = {
        {"defect-free", "14dd46784b2b1ac087008a96a8e353ddc28320b003eaacc29e767962b9811118"},
        {"conventional-760mV", "14dd46784b2b1ac087008a96a8e353ddc28320b003eaacc29e767962b9811118"},
        {"8T", "1f0ad24ced4c0a31e08ee4bf53bcce47313624604ba904b233a8bad9d034e509"},
        {"simple-wdis", "5d4bbec00f3317e80b4ce05b7ae39923c4feede2c9fe7cac4e07027d3f08cf23"},
        {"wilkerson+", "5aea3f63bb5fad4eeb4b57de306dab0fe59098bf0b9fc696aa488af7440071fe"},
        {"fba+", "edf845544945e26fd10dccd604bfe1adb212ffdc6e952900cb618e53fc4a907d"},
        {"idc+", "b23ee57d50253fccbfab3db5f47d52d55ea9d21e0bd523d3c8061454e6ac9c02"},
        {"ffw+bbr", "8aefd1a80040ac96d9a32d82af5abef962bc81a61629d7558521e671e81ce560"},
        {"fba", "ff0d1dd3de916dcb071173bfee20fef89cb9ca0d7b2954b329b8f4c9e94c31f2"},
        {"idc", "e60cb845b6299e06fd0eddbe51c2a89ad97e00b7f57917044ebbcd912f0e98ab"},
        {"ffw/static-first-k", "9cf79bac7693c475a475f5ae3d96257a2c382363648e88cfa1c1371d214cc5bd"},
        {"ffw/static-centered", "f43a2d9d2a3bee63fad4704005b654428f6d262f8aa87ba9bf9b0953c12b0c17"},
    };
    EXPECT_EQ(actual, expected);
}

} // namespace
} // namespace voltcache
