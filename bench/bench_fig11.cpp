// Reproduces Fig. 11: L2 cache accesses per 1000 instructions at each
// low-voltage point (demand reads from both L1s; write-through traffic is
// accounted separately, as a constant across schemes).
//
// Shape check (paper Section VI-B): ffw+bbr is the only architectural
// scheme whose L2 traffic stays acceptable at 400mV; simple-wdis explodes
// once nearly every line contains defective words.
#include "bench_export.h"
#include "bench_util.h"
#include "common/table.h"

using namespace voltcache;

int main() {
    const SweepConfig config = bench::defaultSweepConfig();
    bench::printHeader("Figure 11", "L2 accesses per 1000 instructions");
    std::printf("workload scale: %s, fault maps per point: %u\n\n",
                workloadScaleName(config.scale), config.trials);

    const SweepResult result = runSweep(config);

    const SweepGrid grid = sweepGrid(config);
    const std::vector<OperatingPoint>& points = grid.points;
    std::vector<std::string> header = {"scheme"};
    for (const auto& point : points) {
        header.push_back(formatDouble(point.voltage.millivolts(), 0) + "mV");
    }
    TextTable table(header);
    for (const SchemeKind scheme : grid.schemes) {
        std::vector<std::string> row = {std::string(schemeName(scheme))};
        for (const auto& point : points) {
            const SweepCell& cell = result.cell(scheme, point.voltage);
            row.push_back(cell.runs > 0 ? formatDouble(cell.l2PerKilo.mean(), 1)
                                        : std::string("n/a"));
        }
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);

    const SweepCell& ffw = result.cell(SchemeKind::FfwBbr, points.back().voltage);
    const SweepCell& wdis = result.cell(SchemeKind::SimpleWordDisable, points.back().voltage);
    std::printf("\nAt 400mV ffw+bbr issues %.1fx fewer L2 accesses than simple-wdis —\n"
                "capturing likely accesses in the D-cache windows and keeping fetches\n"
                "off defective I-cache words (paper: the only acceptable increase).\n",
                wdis.l2PerKilo.mean() / ffw.l2PerKilo.mean());

    std::vector<bench::BenchMetric> metrics;
    for (const SchemeKind scheme : grid.schemes) {
        for (const auto& point : points) {
            const SweepCell& cell = result.cell(scheme, point.voltage);
            if (cell.runs == 0) continue;
            const int mv = static_cast<int>(point.voltage.millivolts() + 0.5);
            metrics.push_back(bench::cellMetric("l2_per_kilo", scheme, mv,
                                                cell.l2PerKilo, "accesses/1k-instr"));
        }
    }
    bench::writeBenchJson("fig11", config, metrics);
    return 0;
}
