#include "workload/workload.h"

#include <array>
#include <stdexcept>
#include <string>

namespace voltcache {

namespace {

constexpr std::array<BenchmarkInfo, 10> kBenchmarks = {{
    {"basicmath", "MiBench basicmath"},
    {"qsort", "MiBench qsort"},
    {"dijkstra", "MiBench dijkstra"},
    {"patricia", "MiBench patricia"},
    {"crc32", "MiBench CRC32"},
    {"adpcm", "MiBench ADPCM"},
    {"mcf_r", "SPEC2006 429.mcf"},
    {"bzip2_r", "SPEC2006 401.bzip2"},
    {"hmmer_r", "SPEC2006 456.hmmer"},
    {"libquantum_r", "SPEC2006 462.libquantum"},
}};

} // namespace

std::span<const BenchmarkInfo> benchmarkList() noexcept { return kBenchmarks; }

const char* workloadScaleName(WorkloadScale scale) noexcept {
    switch (scale) {
        case WorkloadScale::Tiny: return "tiny";
        case WorkloadScale::Small: return "small";
        case WorkloadScale::Reference: return "reference";
    }
    return "?";
}

WorkloadScale parseWorkloadScale(std::string_view name) {
    for (const WorkloadScale scale :
         {WorkloadScale::Tiny, WorkloadScale::Small, WorkloadScale::Reference}) {
        if (name == workloadScaleName(scale)) return scale;
    }
    throw std::runtime_error("unknown scale '" + std::string(name) +
                             "' (tiny|small|reference)");
}

Module buildBenchmark(std::string_view name, WorkloadScale scale) {
    if (name == "basicmath") return buildBasicmath(scale);
    if (name == "qsort") return buildQsort(scale);
    if (name == "dijkstra") return buildDijkstra(scale);
    if (name == "patricia") return buildPatricia(scale);
    if (name == "crc32") return buildCrc32(scale);
    if (name == "adpcm") return buildAdpcm(scale);
    if (name == "mcf_r") return buildMcf(scale);
    if (name == "bzip2_r") return buildBzip2(scale);
    if (name == "hmmer_r") return buildHmmer(scale);
    if (name == "libquantum_r") return buildLibquantum(scale);
    throw std::out_of_range("unknown benchmark '" + std::string(name) + "'");
}

} // namespace voltcache
