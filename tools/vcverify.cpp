// vcverify — static BBR image verifier and module lint.
//
// Proves, before any simulation, the paper's BBR guarantee: every
// instruction word reachable from the entry point maps to a fault-free
// I-cache word in direct-mapped mode. Also lints the module for the
// ill-formed shapes the linker/runtime would otherwise discover late.
//
//   vcverify <prog.s|benchmark> [options]
//     --mv V            voltage for generated fault maps (default 400)
//     --seed N          fault-map seed used for linking (default 1)
//     --map FILE        load the link fault map from FILE
//     --verify-seed N   prove against a different generated map (mismatch check)
//     --verify-map FILE prove against a map loaded from FILE
//     --scale S         benchmark input scale: tiny|small|reference (default tiny)
//     --no-transform    skip the BBR code transformations
//     --conventional    link contiguously (no BBR placement); prover still runs
//     --lint-only       lint the module and exit without linking
//     --max-block W     override the lint block-size bound
//
//   exit 0  verified: lint clean (no errors) and placement proven
//   exit 1  rejected: lint errors or placement violations (diagnostics on stdout)
//   exit 2  usage or I/O error
//   exit 3  link failure — no fault-free chunk fits (a Monte Carlo yield loss)
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/verify.h"
#include "compiler/passes.h"
#include "faults/fault_map_io.h"
#include "isa/assembler.h"
#include "power/dvfs.h"
#include "workload/workload.h"

using namespace voltcache;

namespace {

struct Args {
    std::string positional;
    std::map<std::string, std::string> flags;

    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
        const auto it = flags.find(key);
        return it != flags.end() ? it->second : fallback;
    }
    [[nodiscard]] bool has(const std::string& key) const { return flags.contains(key); }
};

Args parseArgs(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
            const std::string key = token.substr(2);
            if (key == "no-transform" || key == "conventional" || key == "lint-only") {
                args.flags[key] = "1";
                continue;
            }
            if (key != "mv" && key != "seed" && key != "map" && key != "verify-seed" &&
                key != "verify-map" && key != "scale" && key != "max-block") {
                throw std::runtime_error("unknown flag '" + token + "'");
            }
            if (i + 1 >= argc) throw std::runtime_error("flag " + token + " needs a value");
            args.flags[key] = argv[++i];
        } else if (args.positional.empty()) {
            args.positional = token;
        } else {
            throw std::runtime_error("unexpected argument '" + token + "'");
        }
    }
    return args;
}

double parseNumber(const std::string& flag, const std::string& value) {
    std::size_t used = 0;
    double parsed = 0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != value.size() || value.empty()) {
        throw std::runtime_error("--" + flag + ": not a number: '" + value + "'");
    }
    return parsed;
}

Module loadProgram(const std::string& source, WorkloadScale scale) {
    for (const auto& info : benchmarkList()) {
        if (info.name == source) return buildBenchmark(source, scale);
    }
    std::ifstream in(source);
    if (!in) throw std::runtime_error("cannot open '" + source + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return assemble(text.str());
}

FaultMap loadMap(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open fault map '" + path + "'");
    return loadFaultMap(in);
}

FaultMap generateMap(double millivolts, std::uint64_t seed) {
    Rng rng(seed);
    const FaultMapGenerator generator;
    return generator.generate(rng, Voltage::fromMillivolts(millivolts), 1024, 8);
}

int usage() {
    std::fprintf(stderr,
                 "usage: vcverify <prog.s|benchmark> [--mv V] [--seed N] [--map FILE]\n"
                 "                [--verify-seed N] [--verify-map FILE] [--scale S]\n"
                 "                [--no-transform] [--conventional] [--lint-only]\n"
                 "                [--max-block W]\n"
                 "exit: 0 verified, 1 rejected, 2 usage/I-O error, 3 link failure\n");
    return 2;
}

int run(const Args& args) {
    Module module = loadProgram(args.positional, parseWorkloadScale(args.get("scale", "tiny")));
    const bool bbr = !args.has("conventional");
    if (!args.has("no-transform")) applyBbrTransforms(module);

    const double mv = parseNumber("mv", args.get("mv", "400"));
    const FaultMap linkMap =
        args.has("map")
            ? loadMap(args.get("map", ""))
            : generateMap(mv, static_cast<std::uint64_t>(
                                  parseNumber("seed", args.get("seed", "1"))));

    analysis::LintOptions lintOptions;
    lintOptions.bbrMode = bbr;
    lintOptions.maxBlockWords =
        args.has("max-block")
            ? static_cast<std::uint32_t>(
                  parseNumber("max-block", args.get("max-block", "0")))
            : analysis::maxPlaceableBlockWords(linkMap);
    const auto findings = analysis::lintModule(module, lintOptions);
    std::fputs(analysis::formatFindings(findings).c_str(), stdout);
    const bool lintFailed = analysis::hasLintErrors(findings);

    if (args.has("lint-only")) {
        std::printf("lint: %zu finding(s), %s\n", findings.size(),
                    lintFailed ? "REJECTED" : "ok");
        return lintFailed ? 1 : 0;
    }

    LinkOptions linkOptions;
    linkOptions.bbrPlacement = bbr;
    if (bbr) linkOptions.icacheFaultMap = &linkMap;
    std::optional<LinkOutput> out;
    try {
        out = link(module, linkOptions);
    } catch (const LinkError& e) {
        std::printf("link failure (yield loss): %s\n", e.what());
        return 3;
    }

    const FaultMap verifyMap =
        args.has("verify-map")
            ? loadMap(args.get("verify-map", ""))
            : (args.has("verify-seed")
                   ? generateMap(mv, static_cast<std::uint64_t>(parseNumber(
                                         "verify-seed", args.get("verify-seed", "1"))))
                   : linkMap);

    const analysis::PlacementProof proof =
        analysis::provePlacement(out->image, verifyMap, &module);
    std::fputs(analysis::formatProof(proof).c_str(), stdout);
    std::printf("%s: %u reachable words over %u blocks (%u dead blocks, %u dead words), "
                "%zu violation(s), %u faulty cache words\n",
                proof.verified && !lintFailed ? "VERIFIED" : "REJECTED",
                proof.reachableWords, proof.reachableBlocks, proof.deadBlocks,
                proof.deadWords, proof.violations.size(), verifyMap.totalFaultyWords());
    return proof.verified && !lintFailed ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    try {
        const Args args = parseArgs(argc, argv);
        if (args.positional.empty()) return usage();
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vcverify: %s\n", e.what());
        return 2;
    }
}
