// Shared helpers for the reproduction harness binaries. Each binary
// regenerates one table or figure of the paper; environment variables scale
// the Monte Carlo effort:
//   VOLTCACHE_TRIALS  fault maps per DVFS point   (default 3; paper: 1000)
//   VOLTCACHE_SCALE   tiny | small | reference    (default small)
//   VOLTCACHE_BENCHMARKS  comma-separated subset  (default: all ten)
// A trial count or scale that does not parse whole throws rather than runs
// another experiment.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/sweep.h"
#include "workload/workload.h"

namespace voltcache::bench {

inline std::uint32_t envTrials(std::uint32_t fallback = 3) {
    const char* value = std::getenv("VOLTCACHE_TRIALS");
    if (value == nullptr) return fallback;
    const std::optional<std::uint64_t> trials = parseUnsigned(value, UINT32_MAX);
    if (!trials) {
        throw std::runtime_error(std::string("VOLTCACHE_TRIALS: not a number: '") + value + "'");
    }
    return static_cast<std::uint32_t>(*trials);
}

inline WorkloadScale envScale(WorkloadScale fallback = WorkloadScale::Small) {
    const char* value = std::getenv("VOLTCACHE_SCALE");
    return value != nullptr ? parseWorkloadScale(value) : fallback;
}

inline std::vector<std::string> envBenchmarks() {
    const char* value = std::getenv("VOLTCACHE_BENCHMARKS");
    return value != nullptr ? splitCsv(value) : std::vector<std::string>{};
}

inline SweepConfig defaultSweepConfig() {
    SweepConfig config;
    config.trials = envTrials();
    config.scale = envScale();
    config.benchmarks = envBenchmarks();
    return config;
}

inline void printHeader(const char* artifact, const char* caption) {
    std::printf("================================================================\n");
    std::printf("voltcache reproduction — %s\n", artifact);
    std::printf("%s\n", caption);
    std::printf("================================================================\n\n");
}

} // namespace voltcache::bench
