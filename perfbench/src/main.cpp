// vcbench: one run of one voltcache benchmark workload.
//
//   vcbench --workload <sweep_small|ffwbbr_deep|serve_mix> --seed N
//           --seconds S --trace 0|1 --out RESULT.json [--spans SPANS.json]
//
// Writes the raw result (fingerprint, samples, scalars, per-layer metrics,
// output checks) to --out; perfbench/run.py reduces it and prints the
// metrics. Exit codes: 0 ran (checks may still have failed; see the result),
// 2 usage, 3 refused to measure this build, 4 the workload threw.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

vcbench::Options parseOptions(int argc, char** argv) {
    vcbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::stoull(value);
        } else if (key == "--seconds") {
            options.seconds = std::stod(value);
        } else if (key == "--trace") {
            options.trace = value != "0";
        } else if (key == "--out") {
            options.out = value;
        } else if (key == "--spans") {
            options.spans = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (argc % 2 == 0) throw std::invalid_argument("every option takes a value");
    if (options.workload != "serve_mix" && !vcbench::isSweepWorkload(options.workload)) {
        throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    if (options.out.empty()) throw std::invalid_argument("--out is required");
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return options;
}

} // namespace

int main(int argc, char** argv) {
    vcbench::Options options;
    try {
        options = parseOptions(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vcbench: %s\n", e.what());
        return 2;
    }
    const vcbench::Fingerprint fingerprint = vcbench::hostFingerprint();
    if (const std::string why = fingerprint.refusal(); !why.empty()) {
        std::fprintf(stderr, "vcbench: refusing to measure a %s\n", why.c_str());
        return 3;
    }
    try {
        vcbench::Report report;
        if (options.trace) {
            vcbench::runTraced(options, report);
        } else if (vcbench::isSweepWorkload(options.workload)) {
            vcbench::runSweepWorkload(options, report);
        } else {
            vcbench::runServeWorkload(options, report);
        }
        report.write(options, fingerprint);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vcbench: %s: %s\n", options.workload.c_str(), e.what());
        return 4;
    }
    return 0;
}
