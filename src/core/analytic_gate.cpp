#include "core/analytic_gate.h"

#include <map>
#include <string>
#include <vector>

#include "compiler/passes.h"
#include "schemes/factory.h"
#include "workload/workload.h"

namespace voltcache {

analysis::CrosscheckReport analyticCrosscheck(const SweepResult& result,
                                              const SweepConfig& config,
                                              double zThreshold) {
    // Rebuild each benchmark's BBR twin to recover the largest section the
    // linker had to place — deterministic, so the reconstruction matches the
    // modules the sweep actually linked.
    const std::vector<std::string> names = sweepGrid(config).benchmarks;
    std::map<std::string, std::uint32_t> needWords;
    for (const std::string& name : names) {
        Module module = buildBenchmark(name, config.scale);
        applyBbrTransforms(module, config.systemTemplate.maxBlockWords);
        needWords[name] = analysis::modulePlacementNeedWords(module);
    }

    analysis::CrosscheckConfig checkConfig;
    checkConfig.model = FailureModel{};
    checkConfig.lines = config.systemTemplate.l1Org.lines();
    checkConfig.wordsPerLine = config.systemTemplate.l1Org.wordsPerBlock();
    checkConfig.trials = config.trials;
    checkConfig.benchmarks = static_cast<std::uint32_t>(names.size());
    checkConfig.zThreshold = zThreshold;

    std::vector<analysis::CellSample> cells;
    for (const auto& [key, forensics] : result.forensics) {
        analysis::CellSample sample;
        sample.scheme = key.first;
        sample.mv = key.second;
        sample.hasForensics = true;
        sample.forensics = forensics;
        if (schemeNeedsBbrLinking(key.first)) {
            for (const std::string& name : names) {
                const auto it =
                    result.perBenchmark.find({name, key.first, key.second});
                if (it == result.perBenchmark.end()) continue;
                analysis::PlacementSample placement;
                placement.benchmark = name;
                placement.needWords = needWords[name];
                placement.chips = it->second.runs + it->second.linkFailures;
                placement.linkFailures = it->second.linkFailures;
                sample.placements.push_back(std::move(placement));
            }
        }
        cells.push_back(std::move(sample));
    }
    return analysis::crosscheckCells(cells, checkConfig);
}

} // namespace voltcache
