// Reproduces Fig. 3: normalized histograms of D-cache spatial locality and
// word reuse rate, per benchmark, over fixed 10000-instruction intervals.
// Shape check: most programs sit at <=60% spatial locality and/or >=60%
// reuse; libquantum_r is the high-locality/low-reuse outlier.
#include <algorithm>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/table.h"
#include "cpu/simulator.h"
#include "linker/linker.h"
#include "schemes/conventional.h"
#include "workload/locality.h"

using namespace voltcache;

int main() {
    const WorkloadScale scale = bench::envScale();
    bench::printHeader("Figure 3",
                       "Spatial locality and word reuse per 10000-instruction interval");
    std::printf("workload scale: %s\n\n", workloadScaleName(scale));

    TextTable summary({"benchmark", "models", "mean spatial locality", "mean word reuse",
                       "intervals"});
    std::vector<std::string> only = bench::envBenchmarks();
    for (const auto& info : benchmarkList()) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), std::string(info.name)) == only.end()) {
            continue;
        }
        const Module module = buildBenchmark(info.name, scale);
        const LinkOutput linked = link(module);
        L2Cache l2;
        CacheOrganization org;
        ConventionalCache icache(org, l2);
        ConventionalCache dcache(org, l2);
        Simulator sim(linked.image, module.data, icache, dcache);
        LocalityProfiler profiler;
        sim.setObserver(&profiler);
        (void)sim.run();
        profiler.finalize();

        summary.addRow({std::string(info.name), std::string(info.models),
                        formatPercent(profiler.meanSpatialLocality()),
                        formatPercent(profiler.meanWordReuseRate()),
                        std::to_string(profiler.intervals().size())});

        Histogram spatial(0.0, 1.0, 10);
        Histogram reuse(0.0, 1.0, 10);
        for (const auto& interval : profiler.intervals()) {
            spatial.add(interval.spatialLocality, static_cast<double>(interval.accesses));
            reuse.add(interval.wordReuseRate, static_cast<double>(interval.accesses));
        }
        std::printf("%s — spatial locality histogram (normalized):\n%s", info.name.data(),
                    spatial.render(40).c_str());
        std::printf("%s — word reuse histogram (normalized):\n%s\n", info.name.data(),
                    reuse.render(40).c_str());
    }
    std::printf("Summary:\n%s", summary.render().c_str());
    std::printf("\nShape check: libquantum_r should be the only high-spatial/low-reuse "
                "program;\nmcf_r / patricia / basicmath show low spatial locality with "
                "high reuse.\n");
    return 0;
}
