// Reproduces Fig. 10: runtime at each low-voltage DVFS point, normalized to
// the unrealistic defect-free baseline at the same voltage, for all
// schemes, averaged over the benchmark suite and Monte Carlo fault maps.
// Also prints the runtime decomposition (busy / I-stall / D-stall /
// branch) per the measurement approach of [35].
//
// Shape checks (paper Section VI-B):
//  * at 560mV the +1-cycle schemes (8T, wilkerson+, fba+, idc+) suffer large
//    slowdowns while the 0-cycle schemes (simple-wdis, ffw+bbr) lose little;
//  * below 480mV simple-wdis collapses from L2 traffic and fba+/idc+
//    overtake it; ffw+bbr stays best throughout.
#include "bench_export.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/analytic_gate.h"

using namespace voltcache;

int main() {
    const SweepConfig config = bench::defaultSweepConfig();
    bench::printHeader("Figure 10", "Normalized runtime vs the defect-free baseline");
    std::printf("Processor: Table I (2-way superscalar, 32KB 4-way L1s @2cyc, 512KB L2 "
                "@10cyc)\nworkload scale: %s, fault maps per point: %u (paper: 1000)\n\n",
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
            std::string text = cell.runs > 0 ? formatDouble(cell.normRuntime.mean(), 3)
                                             : std::string("n/a");
            if (cell.linkFailures > 0) {
                text += " (" + std::to_string(cell.linkFailures) + " yield-loss)";
            }
            row.push_back(text);
        }
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nRuntime decomposition at 400mV (fractions of cycles, method of [35]):\n");
    TextTable decomposition({"scheme", "busy", "I-fetch stall", "D-mem stall",
                             "branch stall"});
    for (const SchemeKind scheme : grid.schemes) {
        const SweepCell& cell = result.cell(scheme, points.back().voltage);
        if (cell.runs == 0) continue;
        decomposition.addRow({std::string(schemeName(scheme)),
                              formatPercent(cell.busyFrac.mean()),
                              formatPercent(cell.ifetchFrac.mean()),
                              formatPercent(cell.dmemFrac.mean()),
                              formatPercent(cell.branchFrac.mean())});
    }
    std::fputs(decomposition.render().c_str(), stdout);

    std::printf("\n95%% CI half-widths (normalized runtime, 400mV):\n");
    for (const SchemeKind scheme : grid.schemes) {
        const SweepCell& cell = result.cell(scheme, points.back().voltage);
        if (cell.runs == 0) continue;
        const auto ci = confidenceInterval(cell.normRuntime);
        std::printf("  %-14s ±%.3f (%.1f%% margin, %u runs)\n",
                    schemeName(scheme).data(), ci.halfWidth, ci.relativeMargin() * 100.0,
                    cell.runs);
    }

    std::vector<bench::BenchMetric> metrics;
    for (const SchemeKind scheme : grid.schemes) {
        for (const auto& point : points) {
            const SweepCell& cell = result.cell(scheme, point.voltage);
            if (cell.runs == 0) continue;
            const int mv = static_cast<int>(point.voltage.millivolts() + 0.5);
            metrics.push_back(bench::cellMetric("norm_runtime", scheme, mv,
                                                cell.normRuntime, "ratio"));
        }
    }
    // Statistical oracle: worst z-equivalent divergence between this sweep's
    // forensics/link outcomes and the closed-form FFW/BBR models. Exported so
    // bench_check flags any drift from the analytic prediction, not just from
    // the previous run.
    const analysis::CrosscheckReport analytic = analyticCrosscheck(result, config);
    bench::BenchMetric gate;
    gate.name = "model.analytic_vs_mc_max_z";
    gate.value = analytic.maxZ();
    gate.unit = "z";
    gate.samples = analytic.checks.size();
    metrics.push_back(gate);
    std::printf("\nanalytic cross-check: max z = %.2f over %zu checks (%zu skipped) — %s\n",
                analytic.maxZ(), analytic.checks.size(), analytic.skippedCount(),
                analytic.passed() ? "PASS" : "FAIL");

    bench::writeBenchJson("fig10", config, metrics);
    return 0;
}
