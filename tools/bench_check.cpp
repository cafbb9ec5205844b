// bench_check — noise-aware bench regression gate.
//
//   bench_check --baseline BENCH_x.json --fresh BENCH_x.json
//              [--rel-threshold 0.10] [--ci-mult 3]
//
// Compares a freshly produced BENCH_*.json against a committed baseline,
// metric by metric. A metric regresses when it moves in its bad direction
// (inferred from the unit: throughput units are lower-is-worse, time and
// ratio units are higher-is-worse, unknown units are two-sided) by more than
//
//   tol = max(rel_threshold * |baseline|, ci_mult * (baseCi + freshCi))
//
// — i.e. the stored confidence-interval half-widths widen the tolerance so
// run-to-run Monte Carlo / timer noise does not trip the gate, while a real
// shift beyond both the relative floor and the statistical noise fails it.
//
// Additional gates:
//   * a committed baseline whose CI half-width exceeds |value| fails as
//     ILL-CONDITIONED — such a baseline tolerates anything, so it gates
//     nothing and must be re-measured with more reps;
//   * metrics named *efficiency* regress downward (higher is better), even
//     though their unit is a fraction;
//   * --speedup REF:FRESH:RATIO (repeatable) requires fresh[FRESH] >=
//     RATIO * baseline[REF]. With --baseline and --fresh naming the same
//     fresh export, the ratio is within-run (e.g. replayed against
//     execution-driven sweep legs/sec) and independent of the host.
//
// Exit 0 = no regressions, 1 = at least one, 2 = usage/parse error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_parse.h"

using voltcache::JsonParseError;
using voltcache::JsonValue;
using voltcache::parseJson;

namespace {

struct Metric {
    double value = 0.0;
    double ciHalfWidth = 0.0;
    std::string unit;
};

enum class BadDirection { Higher, Lower, Both };

/// Which way is "worse" for a metric, from its name and unit. Throughput
/// (anything per second) regresses downward; time, ratios, and fractions
/// regress upward; unknown units gate both directions. Efficiency metrics
/// are fractions where *higher* is better (the thread-scaling gate), so the
/// name overrides the unit rule.
BadDirection badDirectionFor(const std::string& name, const std::string& unit) {
    if (name.find("efficiency") != std::string::npos) return BadDirection::Lower;
    if (unit == "1/s" || unit.find("/s") != std::string::npos) return BadDirection::Lower;
    if (unit == "ns" || unit == "us" || unit == "ms" || unit == "s" || unit == "cycles" ||
        unit == "ratio" || unit == "frac" || unit == "bytes" || unit == "words") {
        return BadDirection::Higher;
    }
    return BadDirection::Both;
}

std::map<std::string, Metric> loadMetrics(const std::string& path, std::string* artifact) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = parseJson(text.str());
    *artifact = doc.stringOr("artifact", "?");
    const JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr || !metrics->isArray()) {
        throw std::runtime_error(path + ": no metrics array");
    }
    std::map<std::string, Metric> out;
    for (const JsonValue& entry : metrics->items) {
        Metric metric;
        metric.value = entry.numberOr("value", 0.0);
        metric.ciHalfWidth = entry.numberOr("ci_half_width", 0.0);
        metric.unit = entry.stringOr("unit", "");
        out.emplace(entry.stringOr("name", "?"), metric);
    }
    return out;
}

} // namespace

/// A milestone ratio: fresh[freshMetric] must be at least `minRatio` times
/// baseline[refMetric]. Spelled REF_METRIC:FRESH_METRIC:MIN_RATIO on the
/// command line.
struct SpeedupGate {
    std::string refMetric;
    std::string freshMetric;
    double minRatio = 1.0;
};

int main(int argc, char** argv) {
    std::string baselinePath;
    std::string freshPath;
    std::vector<SpeedupGate> speedups;
    double relThreshold = 0.10;
    double ciMult = 3.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_check: %s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--baseline") {
            baselinePath = next();
        } else if (arg == "--fresh") {
            freshPath = next();
        } else if (arg == "--rel-threshold") {
            relThreshold = std::strtod(next(), nullptr);
        } else if (arg == "--ci-mult") {
            ciMult = std::strtod(next(), nullptr);
        } else if (arg == "--speedup") {
            const std::string spec = next();
            const std::size_t c1 = spec.find(':');
            const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
            if (c2 == std::string::npos) {
                std::fprintf(stderr,
                             "bench_check: --speedup wants REF_METRIC:FRESH_METRIC:RATIO\n");
                return 2;
            }
            SpeedupGate gate;
            gate.refMetric = spec.substr(0, c1);
            gate.freshMetric = spec.substr(c1 + 1, c2 - c1 - 1);
            gate.minRatio = std::strtod(spec.c_str() + c2 + 1, nullptr);
            if (gate.minRatio <= 0.0) {
                std::fprintf(stderr, "bench_check: --speedup ratio must be positive\n");
                return 2;
            }
            speedups.push_back(gate);
        } else {
            std::fprintf(stderr,
                         "usage: bench_check --baseline FILE --fresh FILE\n"
                         "       [--rel-threshold %.2f] [--ci-mult %.1f]\n"
                         "       [--speedup REF_METRIC:FRESH_METRIC:MIN_RATIO]...\n",
                         relThreshold, ciMult);
            return 2;
        }
    }
    if (baselinePath.empty() || freshPath.empty()) {
        std::fprintf(stderr, "bench_check: --baseline and --fresh are required\n");
        return 2;
    }

    try {
        std::string baseArtifact;
        std::string freshArtifact;
        const auto baseline = loadMetrics(baselinePath, &baseArtifact);
        const auto fresh = loadMetrics(freshPath, &freshArtifact);
        if (baseArtifact != freshArtifact) {
            std::fprintf(stderr, "bench_check: artifact mismatch ('%s' vs '%s')\n",
                         baseArtifact.c_str(), freshArtifact.c_str());
            return 2;
        }

        int regressions = 0;
        int compared = 0;
        int missing = 0;
        int illConditioned = 0;
        for (const auto& [name, base] : baseline) {
            // A committed baseline whose confidence interval swallows its
            // own mean cannot gate anything: every tolerance it produces is
            // wider than the value it protects. Re-measure with more reps
            // before committing it.
            if (base.ciHalfWidth > std::fabs(base.value) && base.ciHalfWidth > 0.0) {
                std::fprintf(stderr,
                             "ILL-CONDITIONED %s: baseline %.6g +- %.6g "
                             "(CI half-width exceeds |value|)\n",
                             name.c_str(), base.value, base.ciHalfWidth);
                ++illConditioned;
            }
            const auto it = fresh.find(name);
            if (it == fresh.end()) {
                std::fprintf(stderr, "MISSING  %s (in baseline, not in fresh run)\n",
                             name.c_str());
                ++missing;
                continue;
            }
            const Metric& now = it->second;
            ++compared;
            const double tol = std::max(relThreshold * std::fabs(base.value),
                                        ciMult * (base.ciHalfWidth + now.ciHalfWidth));
            const double delta = now.value - base.value;
            const BadDirection bad = badDirectionFor(name, base.unit);
            const bool regressed =
                (bad == BadDirection::Higher && delta > tol) ||
                (bad == BadDirection::Lower && -delta > tol) ||
                (bad == BadDirection::Both && std::fabs(delta) > tol);
            if (regressed) {
                std::fprintf(stderr,
                             "REGRESSED %s: %.6g -> %.6g (delta %+.6g, tol %.6g, unit %s)\n",
                             name.c_str(), base.value, now.value, delta, tol,
                             base.unit.c_str());
                ++regressions;
            }
        }

        // Milestone ratios: e.g. the batched sweep's legs/sec against the
        // execution-driven legs/sec of the same export.
        int lostMilestones = 0;
        if (!speedups.empty()) {
            for (const SpeedupGate& gate : speedups) {
                const auto ref = baseline.find(gate.refMetric);
                const auto now = fresh.find(gate.freshMetric);
                if (ref == baseline.end() || now == fresh.end()) {
                    std::fprintf(stderr, "MISSING  speedup gate %s -> %s: metric absent\n",
                                 gate.refMetric.c_str(), gate.freshMetric.c_str());
                    ++lostMilestones;
                    continue;
                }
                if (ref->second.value <= 0.0) {
                    std::fprintf(stderr, "ILL-CONDITIONED speedup reference %s: %.6g\n",
                                 gate.refMetric.c_str(), ref->second.value);
                    ++lostMilestones;
                    continue;
                }
                const double ratio = now->second.value / ref->second.value;
                if (ratio < gate.minRatio) {
                    std::fprintf(stderr,
                                 "LOST MILESTONE %s / %s = %.3f < required %.3f\n",
                                 gate.freshMetric.c_str(), gate.refMetric.c_str(), ratio,
                                 gate.minRatio);
                    ++lostMilestones;
                } else {
                    std::printf("milestone %s / %s = %.3fx (>= %.3fx)\n",
                                gate.freshMetric.c_str(), gate.refMetric.c_str(), ratio,
                                gate.minRatio);
                }
            }
        }

        std::printf("bench_check %s: %d compared, %d regressed, %d missing, "
                    "%d ill-conditioned\n",
                    baseArtifact.c_str(), compared, regressions, missing, illConditioned);
        // A metric that vanished from the export is a broken gate, not noise.
        return regressions > 0 || missing > 0 || illConditioned > 0 || lostMilestones > 0
                   ? 1
                   : 0;
    } catch (const JsonParseError& e) {
        std::fprintf(stderr, "bench_check: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_check: %s\n", e.what());
        return 2;
    }
}
