// Property-based suites: FFW checked against an independent oracle under
// random access streams, BBR placement + execution under random fault maps,
// and statistical invariants of the Monte Carlo machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/system.h"
#include "schemes/ffw.h"
#include "schemes/wilkerson.h"
#include "schemes/word_disable.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using voltcache::literals::operator""_mV;

// ---- FFW vs. an independent oracle ----

/// Reference model of the FFW semantics, written independently of the
/// implementation: per (set, way) it tracks tag + window and replays the
/// paper's rules (write-through no-allocate; recenter on read word miss;
/// centered fill; LRU).
class FfwOracle {
public:
    FfwOracle(const CacheOrganization& org, const FaultMap& map)
        : org_(org), map_(&map), state_(org.lines()) {}

    struct Line {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint32_t start = 0;
        std::uint32_t length = 0;
        std::uint64_t lru = 0;
    };

    bool read(std::uint32_t addr) {
        const std::uint32_t set = (addr / 32) % org_.sets();
        const std::uint32_t tag = (addr / 32) / org_.sets();
        const std::uint32_t word = (addr % 32) / 4;
        if (Line* line = find(set, tag)) {
            line->lru = ++clock_;
            if (word >= line->start && word < line->start + line->length) return true;
            recenter(*line, set, word);
            return false;
        }
        fill(set, tag, word);
        return false;
    }

    bool write(std::uint32_t addr) {
        const std::uint32_t set = (addr / 32) % org_.sets();
        const std::uint32_t tag = (addr / 32) / org_.sets();
        const std::uint32_t word = (addr % 32) / 4;
        if (Line* line = find(set, tag)) {
            line->lru = ++clock_;
            return word >= line->start && word < line->start + line->length;
        }
        return false;
    }

private:
    Line* find(std::uint32_t set, std::uint32_t tag) {
        for (std::uint32_t way = 0; way < org_.associativity; ++way) {
            Line& line = state_[way * org_.sets() + set];
            if (line.valid && line.tag == tag) return &line;
        }
        return nullptr;
    }

    std::uint32_t freeCount(std::uint32_t set, std::uint32_t way) const {
        return map_->faultFreeCount(way * org_.sets() + set);
    }

    void recenter(Line& line, std::uint32_t set, std::uint32_t word) {
        std::uint32_t way = 0;
        for (; way < org_.associativity; ++way) {
            if (&state_[way * org_.sets() + set] == &line) break;
        }
        const std::uint32_t k = freeCount(set, way);
        const std::uint32_t half = (k - 1) / 2;
        std::uint32_t start = word > half ? word - half : 0;
        start = std::min(start, 8 - k);
        line.start = start;
        line.length = k;
    }

    void fill(std::uint32_t set, std::uint32_t tag, std::uint32_t word) {
        std::optional<std::uint32_t> victim;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::uint32_t way = 0; way < org_.associativity; ++way) {
            if (freeCount(set, way) == 0) continue; // dead frame
            Line& line = state_[way * org_.sets() + set];
            if (!line.valid) {
                victim = way;
                break;
            }
            if (line.lru < oldest) {
                oldest = line.lru;
                victim = way;
            }
        }
        if (!victim) return; // whole set dead
        Line& line = state_[*victim * org_.sets() + set];
        line.valid = true;
        line.tag = tag;
        line.lru = ++clock_;
        recenter(line, set, word);
    }

    CacheOrganization org_;
    const FaultMap* map_;
    std::vector<Line> state_;
    std::uint64_t clock_ = 0;
};

class FfwOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FfwOracleProperty, ImplementationMatchesOracle) {
    Rng rng(GetParam());
    const FaultMapGenerator generator;
    const CacheOrganization org;
    const FaultMap map = generator.generate(rng, 400_mV, org.lines(), org.wordsPerBlock());

    L2Cache l2;
    FfwDCache dcache(org, map, l2);
    FfwOracle oracle(org, map);

    // A mix of sequential runs and random jumps over a 256KB footprint.
    std::uint32_t addr = 0;
    for (int i = 0; i < 60000; ++i) {
        if (rng.nextBernoulli(0.2)) {
            addr = static_cast<std::uint32_t>(rng.nextBelow(256 * 1024)) & ~3u;
        } else {
            addr = (addr + 4) % (256 * 1024);
        }
        if (rng.nextBernoulli(0.25)) {
            EXPECT_EQ(dcache.write(addr).l1Hit, oracle.write(addr)) << "write @" << addr;
        } else {
            EXPECT_EQ(dcache.read(addr).l1Hit, oracle.read(addr)) << "read @" << addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfwOracleProperty, ::testing::Values(11, 22, 33, 44));

// ---- FFW dominance over simple word disable ----

class FfwDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FfwDominance, FfwNeverTrailsOnSequentialScans) {
    // On forward scans FFW's moving window must capture at least as many
    // hits as static word disable, for any fault map.
    Rng rng(GetParam());
    const FaultMapGenerator generator;
    const CacheOrganization org;
    const FaultMap map = generator.generate(rng, 400_mV, org.lines(), org.wordsPerBlock());
    L2Cache l2a;
    L2Cache l2b;
    FfwDCache ffw(org, map, l2a);
    SimpleWordDisableCache wdis(org, map, l2b);
    for (std::uint32_t addr = 0; addr < 64 * 1024; addr += 4) {
        (void)ffw.read(addr);
        (void)wdis.read(addr);
    }
    EXPECT_GE(ffw.stats().hits, wdis.stats().hits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfwDominance, ::testing::Values(1, 2, 3));

// ---- BBR end-to-end under random maps ----

class BbrEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BbrEndToEnd, ExecutesCorrectlyOnRandomChips) {
    // Full-stack property: for random chips at 400mV, FFW+BBR either fails
    // to link (yield loss) or computes exactly the reference checksum
    // while never fetching a defective I-cache word (the BbrICache asserts
    // that internally on every fetch).
    const Module module = buildBenchmark("adpcm", WorkloadScale::Tiny);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);

    SystemConfig reference;
    reference.scheme = SchemeKind::Conventional760;
    const SystemResult ref = simulateSystem(module, nullptr, reference);

    int linked = 0;
    for (std::uint64_t seed = GetParam() * 100; seed < GetParam() * 100 + 5; ++seed) {
        SystemConfig config;
        config.scheme = SchemeKind::FfwBbr;
        config.op = DvfsTable::at(400_mV);
        config.faultMapSeed = seed;
        const SystemResult result = simulateSystem(module, &bbrModule, config);
        if (result.linkFailed) continue;
        ++linked;
        EXPECT_EQ(result.checksum, ref.checksum) << "seed " << seed;
    }
    EXPECT_GT(linked, 0) << "every chip unplaceable — placement is broken";
}

INSTANTIATE_TEST_SUITE_P(SeedBlocks, BbrEndToEnd, ::testing::Values(1, 2, 3));

// ---- Monte Carlo machinery ----

TEST(MonteCarlo, EffectiveCapacityMatchesExpectation) {
    // Mean effective capacity at 400mV ~ (1-p_word): the Fig. 6a center.
    const FailureModel model;
    const double pWord = model.pFailStructure(400_mV, 32);
    const FaultMapGenerator generator(model);
    Rng rng(55);
    RunningStats capacity;
    for (int i = 0; i < 50; ++i) {
        const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
        capacity.add(map.effectiveCapacityFraction());
    }
    EXPECT_NEAR(capacity.mean(), 1.0 - pWord, 0.01);
}

TEST(MonteCarlo, ChunkSizesAreGeometric) {
    // Fault-free chunk lengths follow a geometric law with parameter
    // p_word; check the mean at 400mV (Fig. 6b's chunk-size histogram).
    const FailureModel model;
    const double pWord = model.pFailStructure(400_mV, 32);
    const FaultMapGenerator generator(model);
    Rng rng(56);
    RunningStats chunkLength;
    for (int i = 0; i < 20; ++i) {
        const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
        for (const auto& chunk : map.faultFreeChunks()) chunkLength.add(chunk.length);
    }
    // Maximal fault-free runs, conditioned on being non-empty, are
    // geometric with mean 1/p_word.
    EXPECT_NEAR(chunkLength.mean(), 1.0 / pWord, 1.0 / pWord * 0.1);
}

TEST(MonteCarlo, WilkersonYieldCollapsesBelow480) {
    // Fraction of chips with zero unrepairable words: high at 560mV, ~zero
    // at 440mV — the reason the paper supplements Wilkerson below 480mV.
    const FaultMapGenerator generator;
    const CacheOrganization org;
    auto cleanChipFraction = [&](Voltage v) {
        Rng rng(777);
        int clean = 0;
        for (int i = 0; i < 40; ++i) {
            const FaultMap map = generator.generate(rng, v, 1024, 8);
            if (WilkersonPairing(org, map).unrepairableCount() == 0) ++clean;
        }
        return clean / 40.0;
    };
    EXPECT_GT(cleanChipFraction(560_mV), 0.9);
    EXPECT_LT(cleanChipFraction(440_mV), 0.1);
}

} // namespace
} // namespace voltcache
