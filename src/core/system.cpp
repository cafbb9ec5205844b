#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "analysis/verify.h"
#include "common/contracts.h"
#include "faults/fault_map.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schemes/ffw.h"
#include "schemes/static_overheads.h"

namespace voltcache {

namespace detail {

void publishLegMetrics(const SystemConfig& config, const SystemResult& result) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const obs::LabelList labels = {
        {"scheme", std::string(schemeName(config.scheme))},
        {"mv", std::to_string(static_cast<int>(std::lround(config.op.voltage.millivolts())))}};
    if (result.linkFailed) {
        reg.add("leg.link_failures", labels);
        return;
    }
    reg.add("leg.runs", labels);
    reg.add("sim.instructions", labels, result.run.instructions);
    reg.add("sim.cycles", labels, result.run.cycles);
    reg.add("sim.l2_accesses", labels, result.run.activity.l2Accesses);
    reg.add("l1i.accesses", labels, result.icacheStats.accesses);
    reg.add("l1i.hits", labels, result.icacheStats.hits);
    reg.add("l1i.word_misses", labels, result.icacheStats.wordMisses);
    reg.add("l1i.l2_reads", labels, result.icacheStats.l2Reads);
    reg.add("l1d.accesses", labels, result.dcacheStats.accesses);
    reg.add("l1d.hits", labels, result.dcacheStats.hits);
    reg.add("l1d.word_misses", labels, result.dcacheStats.wordMisses);
    reg.add("l1d.l2_reads", labels, result.dcacheStats.l2Reads);
    reg.add("link.gap_words", labels, result.linkStats.gapWords);
    reg.add("link.scan_restarts", labels, result.linkStats.scanRestarts);
    reg.add("link.wrap_arounds", labels, result.linkStats.wrapArounds);
}

LegFaultMaps generateChipFaultMaps(const SystemConfig& config) {
    const obs::Span span("mapgen");
    const CacheOrganization& org = config.l1Org;
    Rng rng(config.faultMapSeed);
    FaultMapGenerator generator{FailureModel{}, 32, config.faultRateScale};
    LegFaultMaps maps{generator.generate(rng, config.op.voltage, org.lines(),
                                         org.wordsPerBlock()),
                      FaultMap(org.lines(), org.wordsPerBlock())};
    maps.icache =
        generator.generate(rng, config.op.voltage, org.lines(), org.wordsPerBlock());
    return maps;
}

std::vector<LegFaultMaps> generateChipFaultMapsBatch(const SystemConfig& config,
                                                     std::span<const std::uint64_t> seeds) {
    const obs::Span span("mapgen");
    const CacheOrganization& org = config.l1Org;
    FaultMapGenerator generator{FailureModel{}, 32, config.faultRateScale};
    std::vector<Rng> rngs;
    rngs.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) rngs.emplace_back(seed);
    // One pass per bit plane; each chip's RNG continues from its D-cache
    // draw into its I-cache draw, exactly as the sequential pair does.
    std::vector<FaultMap> dmaps =
        generator.generateBatch(rngs, config.op.voltage, org.lines(), org.wordsPerBlock());
    std::vector<FaultMap> imaps =
        generator.generateBatch(rngs, config.op.voltage, org.lines(), org.wordsPerBlock());
    std::vector<LegFaultMaps> chips;
    chips.reserve(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        chips.push_back(LegFaultMaps{std::move(dmaps[i]), std::move(imaps[i])});
    }
    return chips;
}

LegFaultMaps generateLegFaultMaps(const SystemConfig& config) {
    const CacheOrganization& org = config.l1Org;

    // One fault map per L1 cache, drawn from the chip's seed at this DVFS
    // point. Defect-free schemes get clean maps (and 760mV is clean by
    // construction: P_fail there is ~1e-8.4 per bit).
    if (schemeIsDefectFree(config.scheme)) {
        return LegFaultMaps{FaultMap(org.lines(), org.wordsPerBlock()),
                            FaultMap(org.lines(), org.wordsPerBlock())};
    }
    return generateChipFaultMaps(config);
}

void finalizeLegResult(const SystemConfig& config, const SchemePair& pair,
                       const LegFaultMaps& maps, SystemResult& result) {
    result.icacheStats = pair.icache->stats();
    result.dcacheStats = pair.dcache->stats();

    // Forensic harvest — shared by the execute and replay paths, so the two
    // modes produce byte-identical distributions by construction.
    if (const auto* ffw = dynamic_cast<const FfwDCache*>(pair.dcache.get())) {
        result.forensics.hasFfw = true;
        for (std::uint32_t line = 0; line < maps.dcache.lines(); ++line) {
            const std::uint32_t freeWords = maps.dcache.faultFreeCount(line);
            ++result.forensics.ffwWindowSize[std::min<std::size_t>(
                freeWords, result.forensics.ffwWindowSize.size() - 1)];
        }
        result.forensics.ffwRecenterDistance = ffw->recenterDistances();
        for (const std::uint64_t count : result.forensics.ffwRecenterDistance) {
            result.forensics.ffwRecenters += count;
        }
    }
    if (pair.needsBbrLinking) {
        result.forensics.hasBbr = true;
        for (const FaultFreeChunk& chunk : maps.icache.faultFreeChunks()) {
            ++result.forensics.bbrChunkWords[forensicsLog2Bucket(chunk.length)];
        }
        for (std::size_t i = 0; i < result.forensics.bbrDisplacement.size(); ++i) {
            result.forensics.bbrDisplacement[i] = result.linkStats.scanHist[i];
        }
        result.forensics.bbrBlocksPlaced = result.linkStats.blocksPlaced;
    }

    // Every L2 read a scheme charges to itself (L1Stats::l2Reads) must have
    // been returned to the simulator via AccessResult::l2Reads and folded
    // into the activity counts — if these drift, the energy model and the
    // miss-ratio figures are talking about different machines.
    VC_CHECK(result.icacheStats.l2Reads + result.dcacheStats.l2Reads ==
             result.run.activity.l2Accesses);

    const EnergyModel energyModel(config.energy);
    result.energyBreakdown = energyModel.energyOf(result.run.activity, config.op,
                                                  pair.l1StaticFactor, pair.l1DynamicFactor);
    result.epi = result.energyBreakdown.total() /
                 static_cast<double>(result.run.activity.instructions);
    result.runtimeSeconds =
        static_cast<double>(result.run.cycles) * config.op.frequency.periodSeconds();
    publishLegMetrics(config, result);
}

LegSetup::LegSetup(const SystemConfig& config, const LegFaultMaps* chipMaps)
    : chipMaps(chipMaps), pipeline(config.pipeline) {
    if (chipMaps == nullptr || schemeIsDefectFree(config.scheme)) {
        ownMaps.emplace(generateLegFaultMaps(config));
    }
    l2.dramLatencyCycles = dramLatencyCycles(config.dramLatencyNs, config.op.frequency);
    pipeline.maxInstructions = config.maxInstructions;
}

std::optional<LinkOutput> LegSetup::link(const Module& module, const SystemConfig& config,
                                         SystemResult& result) const {
    LinkOptions bbr;
    bbr.bbrPlacement = true;
    bbr.icacheFaultMap = &maps().icache;
    try {
        LinkOutput linked = schemeNeedsBbrLinking(config.scheme)
                                ? analysis::linkVerified(module, bbr)
                                : voltcache::link(module);
        result.linkStats = linked.stats;
        return linked;
    } catch (const LinkError& e) {
        result.linkFailed = true;
        result.forensics.failCause = e.cause();
        publishLegMetrics(config, result);
        return std::nullopt;
    }
}

} // namespace detail

std::uint32_t dramLatencyCycles(double dramLatencyNs, Frequency f) noexcept {
    return static_cast<std::uint32_t>(
        std::lround(dramLatencyNs * 1e-9 * f.hertz()));
}

SystemResult simulateSystem(const Module& module, const Module* bbrModule,
                            const SystemConfig& config,
                            const detail::LegFaultMaps* chipMaps) {
    SystemResult result;
    const detail::LegSetup setup(config, chipMaps);
    const detail::LegFaultMaps& maps = setup.maps();
    L2Cache l2(setup.l2);
    SchemePair pair = makeSchemes(config.scheme, config.l1Org, maps.dcache, maps.icache, l2);

    VC_EXPECTS(!pair.needsBbrLinking || bbrModule != nullptr);
    const Module& running = pair.needsBbrLinking ? *bbrModule : module;
    const std::optional<LinkOutput> linked = setup.link(running, config, result);
    if (!linked.has_value()) return result;

    Simulator simulator(linked->image, running.data, *pair.icache, *pair.dcache,
                        setup.pipeline);
    for (TraceObserver* observer : config.observers) simulator.addObserver(observer);
    result.run = simulator.run();
    result.checksum = simulator.reg(1);
    detail::finalizeLegResult(config, pair, maps, result);
    return result;
}

} // namespace voltcache
