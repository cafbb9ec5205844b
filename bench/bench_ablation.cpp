// Ablation studies of the paper's design choices (extension).
//
//  (1) FFW window policy: the paper's moving window ("missing word stands
//      in the middle", Fig. 5) vs a static first-k window vs plain word
//      disable — quantifies how much the recentering mechanism buys.
//  (2) BBR split threshold: the BreakLargeBlocks limit trades code
//      inflation (smaller pieces = more jumps) against placement failures
//      (bigger pieces need rarer chunks) — the knob behind Fig. 6(b)'s
//      block/chunk matching.
#include "bench_util.h"
#include "common/table.h"
#include "compiler/passes.h"
#include "core/system.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "schemes/ffw.h"
#include "schemes/word_disable.h"

#include <memory>

using namespace voltcache;
using voltcache::literals::operator""_mV;

namespace {

/// Replay one benchmark's D-cache trace through a scheme and count hits.
struct TraceStats {
    double hitRate = 0.0;
    double l2PerAccess = 0.0;
};

class Replayer final : public TraceObserver {
public:
    explicit Replayer(DataCacheScheme& scheme) : scheme_(&scheme) {}
    void onDataAccess(std::uint32_t addr, bool isWrite) override {
        const AccessResult res = isWrite ? scheme_->write(addr) : scheme_->read(addr);
        ++accesses_;
        if (res.l1Hit) ++hits_;
        l2_ += res.l2Reads;
    }
    [[nodiscard]] TraceStats stats() const {
        return {accesses_ ? static_cast<double>(hits_) / accesses_ : 0.0,
                accesses_ ? static_cast<double>(l2_) / accesses_ : 0.0};
    }

private:
    DataCacheScheme* scheme_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t l2_ = 0;
};

TraceStats replay(const std::string& benchmark, WorkloadScale scale,
                  DataCacheScheme& scheme) {
    const Module module = buildBenchmark(benchmark, scale);
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    Replayer replayer(scheme);
    sim.setObserver(&replayer);
    (void)sim.run();
    return replayer.stats();
}

} // namespace

int main() {
    const WorkloadScale scale = bench::envScale();
    bench::printHeader("Ablations (extension)",
                       "FFW window-policy ablation and BBR split-threshold sweep");

    // ---- (1) FFW window policies, D-cache trace replay at 400mV ----
    std::printf("(1) D-cache hit rate at 400mV by window policy:\n");
    TextTable ffwTable({"benchmark", "moving window (paper)", "static first-k",
                        "fill-centered only", "simple word disable"});
    const FaultMapGenerator generator;
    for (const char* name : {"basicmath", "crc32", "mcf_r", "libquantum_r"}) {
        Rng rng(33);
        const CacheOrganization org;
        const FaultMap map = generator.generate(rng, 400_mV, org.lines(),
                                                org.wordsPerBlock());
        auto run = [&](auto&& makeScheme) {
            L2Cache l2;
            auto scheme = makeScheme(l2);
            return replay(name, scale == WorkloadScale::Reference ? WorkloadScale::Small
                                                                  : scale,
                          *scheme);
        };
        const auto moving = run([&](L2Cache& l2) {
            return std::make_unique<FfwDCache>(org, map, l2);
        });
        FfwConfig firstK;
        firstK.fillPolicy = FfwConfig::FillPolicy::FirstK;
        firstK.recenterOnWordMiss = false;
        const auto staticK = run([&](L2Cache& l2) {
            return std::make_unique<FfwDCache>(org, map, l2, firstK);
        });
        FfwConfig centeredOnly;
        centeredOnly.recenterOnWordMiss = false;
        const auto centered = run([&](L2Cache& l2) {
            return std::make_unique<FfwDCache>(org, map, l2, centeredOnly);
        });
        const auto wdis = run([&](L2Cache& l2) {
            return std::make_unique<SimpleWordDisableCache>(org, map, l2);
        });
        ffwTable.addRow({name, formatPercent(moving.hitRate), formatPercent(staticK.hitRate),
                         formatPercent(centered.hitRate), formatPercent(wdis.hitRate)});
    }
    std::fputs(ffwTable.render().c_str(), stdout);
    std::printf("\n");

    // ---- (2) BBR split threshold: code inflation vs placement failures ----
    std::printf("(2) BBR split threshold at 400mV (benchmark: dijkstra, %u chips):\n",
                bench::envTrials() * 10);
    TextTable bbrTable({"max block words", "code words", "inflation", "gap words (mean)",
                        "placement failures"});
    const Module original = buildBenchmark("dijkstra", WorkloadScale::Tiny);
    const std::uint32_t baseWords = original.totalCodeWords();
    for (const std::uint32_t maxWords : {6u, 8u, 12u, 16u, 24u}) {
        Module module = buildBenchmark("dijkstra", WorkloadScale::Tiny);
        applyBbrTransforms(module, maxWords);
        std::uint32_t failures = 0;
        RunningStats gaps;
        const std::uint32_t chips = bench::envTrials() * 10;
        for (std::uint32_t chip = 0; chip < chips; ++chip) {
            Rng rng(500 + chip);
            const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
            LinkOptions options;
            options.bbrPlacement = true;
            options.icacheFaultMap = &map;
            try {
                const LinkOutput out = link(module, options);
                gaps.add(out.stats.gapWords);
            } catch (const LinkError&) {
                ++failures;
            }
        }
        bbrTable.addRow({std::to_string(maxWords), std::to_string(module.totalCodeWords()),
                         formatPercent(static_cast<double>(module.totalCodeWords()) /
                                           baseWords -
                                       1.0),
                         formatDouble(gaps.mean(), 0),
                         std::to_string(failures) + "/" + std::to_string(chips)});
    }
    std::fputs(bbrTable.render().c_str(), stdout);
    std::printf("\nReading guide: the moving window recovers most of what static\n"
                "windows lose on locality shifts; splitting below ~8 words inflates\n"
                "code for no placement benefit, while thresholds past ~16 start\n"
                "failing chips at 400mV — kDefaultMaxBlockWords = 12 sits between.\n");
    return 0;
}
