// voltcache — command-line front end to the library.
//
//   voltcache run <prog.s | benchmark> [--scheme S] [--mv V] [--seed N]
//             [--max-instructions N] [--json FILE] [--trace FILE]
//       assemble (or build) a program, link it (BBR placement when the
//       scheme needs it), simulate one chip, print stats
//   voltcache verify <prog.s | benchmark> [--mv V] [--seed N] [--map FILE]
//             [--verify-seed N] [--verify-map FILE] [--scale S]
//             [--no-transform] [--conventional] [--lint-only] [--max-block W]
//       statically verify the BBR link before any simulation: lint the
//       module, link it against a generated (--mv/--seed) or saved BIST
//       (--map) fault map, and prove that every instruction word reachable
//       from the entry point sits in a fault-free I-cache word. --verify-seed
//       / --verify-map prove against a different chip (mismatch check);
//       --conventional links contiguously (the prover still runs). Exit 0
//       verified, 1 rejected, 2 usage or I/O error, 3 link failure (no
//       fault-free chunk fits: a Monte Carlo yield loss)
//   voltcache disasm <prog.s | benchmark> [--bbr]
//       print the listing, optionally after the BBR transformations
//   voltcache faultmap [--mv V] [--seed N] [-o FILE]
//       draw a Monte Carlo fault map for the 32KB L1 and print/save it
//   voltcache yield [--bits N] [--target 0.999]
//       Vccmin of an N-bit structure at a yield target
//   voltcache sweep [--trials N] [--benchmarks a,b,...] [--scale S]
//             [--threads N] [--mv V1,V2,...] [--json FILE] [--trace FILE]
//             [--profile FILE] [--progress] [--no-replay] [--analytic-check]
//             [--check-z Z] [--corrupt-mapgen SCALE] [--batch N]
//       the Fig. 10/11/12 sweep, printed as one table; --json exports the
//       full result (with CI half-widths and the forensics block), --trace
//       the sweep job's timeline with the scheme / linker instant events
//       (Chrome trace JSON: open in Perfetto; --trace-job writes the same
//       timeline without them; instant events fill a lane of their own,
//       so they never evict leg or phase spans), --profile a self-profile
//       (per-phase span self-times + metrics snapshot). --threads sets the worker count
//       (0 = all cores, at most 64); the result is bit-identical either way.
//       --analytic-check gates the MC estimates against the closed-form
//       FFW/BBR models (nonzero exit on divergence); --corrupt-mapgen
//       deliberately scales the sampled fault rate so the gate's negative
//       control has something to catch
//   voltcache model [--mv V1,V2,...] [--need WORDS] [--json FILE]
//       render the closed-form FFW window / yield curves and BBR placement
//       success probabilities (exact + provable bounds) without simulating
//   voltcache profile <profile.json | sweep.json>
//       human-readable rendering of a --profile artifact (span table) or a
//       sweep export's forensics block
//   voltcache stats <prog.s | benchmark> [--scheme S] [--mv V] [--seed N]
//             [--max-instructions N] [--json FILE] [--trace FILE]
//       one instrumented leg: run + L1 + link + locality stats and the full
//       metrics-registry snapshot; --trace writes the leg's timeline with
//       its instant events (`run --trace` too)
//   voltcache serve [--port P] [--store DIR] [--store-budget MB]
//             [--threads N] [--journal FILE] [--telemetry-port N]
//       sweep-as-a-service daemon: NDJSON jobs over loopback TCP, fair
//       round-robin across client sessions, every leg memoized in a
//       content-addressed result store (src/serve). SIGINT/SIGTERM drain
//       gracefully: in-flight legs finish, the store segment flushes
//   voltcache submit <host:port> [--op sweep|run|verify] [sweep flags]
//             [--json FILE] [--progress] [--id LABEL] [--timeout MS]
//       send one job to a running `voltcache serve`, stream its events, and
//       write the returned sweep document (byte-identical to the direct
//       `voltcache sweep --json` path) to --json. Mints a 128-bit trace id
//       for the job (or forwards --trace-id) and reports it back, so the
//       daemon's /trace/<id> endpoint and `voltcache trace` can render the
//       job's span tree end to end
//   voltcache trace <host:port | trace.json | flight.json> [--job J]
//       render a job trace (Chrome trace-event JSON from --trace,
//       --trace-job, /trace/<job>, or a fetch from a live telemetry
//       endpoint) or a flight-recorder crash dump as a human-readable
//       span/event table
//   voltcache list
//       available benchmarks and schemes
//
// Each subcommand accepts only the flags it reads (the command table at
// the bottom); any other flag is a usage error. A number is read whole
// ("4x" and "1e3" are not counts). Usage and I/O errors exit 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "analysis/placement_prover.h"
#include "analysis/scheme_model.h"
#include "common/json_parse.h"
#include "common/socket.h"
#include "core/analytic_gate.h"
#include "common/table.h"
#include "common/version.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/sweep_telemetry.h"
#include "cpu/timeline_observer.h"
#include "faults/fault_map_io.h"
#include "faults/yield.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "obs/export/journal.h"
#include "obs/export/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/locality.h"
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

    /// Flag `key` read whole (`fallback` when absent): a count no larger
    /// than `max`, or a finite real. "4x" or "1e3" is a usage error naming
    /// the flag, never its prefix.
    [[nodiscard]] std::uint64_t count(const std::string& key, std::uint64_t fallback,
                                      std::uint64_t max = UINT64_MAX) const {
        return read(key, fallback, parseUnsigned(get(key, ""), max));
    }
    [[nodiscard]] double real(const std::string& key, double fallback) const {
        return read(key, fallback, parseReal(get(key, "")));
    }
    template <typename T>
    [[nodiscard]] T read(const std::string& key, T fallback, std::optional<T> value) const {
        if (!flags.contains(key)) return fallback;
        if (!value) throw std::runtime_error("--" + key + ": not a number: '" + get(key, "") + "'");
        return *value;
    }
};

/// One subcommand: its handler and the flags it reads, those that take a
/// value and the boolean ones. Any other flag is a usage error.
struct Command {
    std::string_view name;
    int (*handler)(const Args&);
    std::vector<std::string_view> valueFlags;
    std::vector<std::string_view> boolFlags;
};

Args parseArgs(int argc, char** argv, int first, const Command& command) {
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) == 0 || token == "-o") {
            const std::string key = token == "-o" ? "out" : token.substr(2);
            if (std::ranges::find(command.boolFlags, key) != command.boolFlags.end()) {
                args.flags[key] = "1";
                continue;
            }
            if (std::ranges::find(command.valueFlags, key) == command.valueFlags.end()) {
                throw std::runtime_error("unknown flag '" + token + "'");
            }
            // A value never starts with "--": that is the next flag, which a
            // flag missing its value must not swallow.
            if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--")) {
                throw std::runtime_error("flag " + token + " needs a value");
            }
            args.flags[key] = argv[++i];
        } else if (args.positional.empty()) {
            args.positional = token;
        } else {
            throw std::runtime_error("unexpected argument '" + token + "'");
        }
    }
    return args;
}

bool isBenchmarkName(const std::string& name) {
    for (const auto& info : benchmarkList()) {
        if (info.name == name) return true;
    }
    return false;
}

Module loadProgram(const std::string& source, WorkloadScale scale) {
    if (source.empty()) throw std::runtime_error("need a program");
    if (isBenchmarkName(source)) return buildBenchmark(source, scale);
    std::ifstream in(source);
    if (!in) throw std::runtime_error("cannot open '" + source + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return assemble(text.str());
}

/// A Monte Carlo fault map of the 32KB L1 (1024 lines of 8 words).
FaultMap generateMap(double millivolts, std::uint64_t seed) {
    Rng rng(seed);
    const FaultMapGenerator generator;
    return generator.generate(rng, Voltage::fromMillivolts(millivolts), 1024, 8);
}

FaultMap loadMap(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open fault map '" + path + "'");
    return loadFaultMap(in);
}

void writeTextFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    out << content << "\n";
}

/// Split a `host:port` target; nullopt when it has no port part. The port
/// must be a whole number in 0..65535 (a cast would wrap 65545 to 9).
std::optional<std::pair<std::string, std::uint16_t>> parseEndpoint(const std::string& target) {
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos || colon + 1 >= target.size()) return std::nullopt;
    const std::string port = target.substr(colon + 1);
    const std::optional<std::uint64_t> parsed = parseUnsigned(port, 65535);
    if (!parsed) throw std::runtime_error("port '" + port + "' is not in 0..65535");
    return std::pair{target.substr(0, colon), static_cast<std::uint16_t>(*parsed)};
}

/// The per-span self-time table of a profile document or a /progress board
/// (`spans` null = no rows).
void printSpanTable(const JsonValue* spans) {
    TextTable table({"span", "count", "total ms", "self ms", "self %"});
    for (std::size_t i = 0; spans != nullptr && i < spans->items.size(); ++i) {
        const JsonValue& span = spans->items[i];
        table.addRow({span.stringOr("name", "?"),
                      std::to_string(static_cast<std::uint64_t>(span.numberOr("count", 0.0))),
                      formatDouble(span.numberOr("totalNs", 0.0) * 1e-6, 1),
                      formatDouble(span.numberOr("selfNs", 0.0) * 1e-6, 1),
                      formatDouble(100.0 * span.numberOr("selfFrac", 0.0), 1)});
    }
    std::fputs(table.render().c_str(), stdout);
}

/// Parse run/stats leg flags shared by cmdRun and cmdStats.
SystemConfig legConfigFromArgs(const Args& args) {
    SystemConfig config;
    config.scheme = parseSchemeKind(args.get("scheme", "ffw+bbr"));
    config.op = DvfsTable::at(Voltage::fromMillivolts(args.real("mv", 400)));
    config.faultMapSeed = args.count("seed", 1);
    config.maxInstructions = args.count("max-instructions", 0);
    return config;
}

RunExportMeta legMetaFromArgs(const Args& args, const SystemConfig& config) {
    RunExportMeta meta;
    meta.version = std::string(buildVersion());
    meta.benchmark = args.positional;
    meta.scheme = std::string(schemeName(config.scheme));
    meta.voltageMv = static_cast<int>(config.op.voltage.millivolts() + 0.5);
    meta.seed = config.faultMapSeed;
    return meta;
}

int cmdList(const Args& /*args*/) {
    std::printf("benchmarks:\n");
    for (const auto& info : benchmarkList()) {
        std::printf("  %-14s (models %s)\n", info.name.data(), info.models.data());
    }
    std::printf("schemes:\n");
    for (const SchemeKind kind : kAllSchemes) std::printf("  %s\n", schemeName(kind).data());
    std::printf("voltages (Table II): 760 560 520 480 440 400 mV\n");
    return 0;
}

/// One leg of the positional program for `run` / `stats`. With --trace FILE
/// the leg runs as a job labelled `label` whose timeline takes the scheme,
/// linker and simulator instant events, and that timeline is written to FILE.
SystemResult simulateLeg(const Args& args, const char* label, const SystemConfig& config) {
    const Module module = loadProgram(args.positional, WorkloadScale::Small);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);
    if (!args.flags.contains("trace")) return simulateSystem(module, &bbrModule, config);
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    const obs::TraceContext trace = obs::makeRootContext(label);
    store.beginJob(label, trace, /*instants=*/true);
    const SystemResult result = simulateSystem(module, &bbrModule, config);
    store.endJob(trace);
    writeTextFile(args.get("trace", ""), store.toChromeJson(label));
    return result;
}

int cmdRun(const Args& args) {
    const SystemConfig config = legConfigFromArgs(args);
    const SystemResult result = simulateLeg(args, "run", config);
    if (args.flags.contains("json")) {
        writeTextFile(args.get("json", ""),
                      systemResultToJson(result, legMetaFromArgs(args, config)));
    }
    if (result.linkFailed) {
        std::printf("BBR placement failed for this chip (yield loss) — try another "
                    "--seed\n");
        return 1;
    }
    std::printf("program: %s   scheme: %s   %.0fmV / %.0fMHz   chip seed %llu\n",
                args.positional.c_str(), schemeName(config.scheme).data(),
                config.op.voltage.millivolts(), config.op.frequency.megahertz(),
                static_cast<unsigned long long>(config.faultMapSeed));
    std::printf("instructions  %llu%s\n",
                static_cast<unsigned long long>(result.run.instructions),
                result.run.halted ? "" : " (instruction cap hit)");
    std::printf("cycles        %llu  (IPC %.3f)\n",
                static_cast<unsigned long long>(result.run.cycles), result.run.ipc());
    std::printf("runtime       %.3f ms\n", result.runtimeSeconds * 1e3);
    std::printf("EPI           %.1f pJ\n", result.epi * 1e12);
    std::printf("L2 / 1k instr %.1f\n", result.run.l2AccessesPerKilo());
    std::printf("checksum (r1) 0x%08x\n", static_cast<unsigned>(result.checksum));
    if (config.scheme == SchemeKind::FfwBbr) {
        std::printf("BBR link: %u blocks, %u gap words\n", result.linkStats.blocksPlaced,
                    result.linkStats.gapWords);
    }
    return 0;
}

/// Lint the module, link it, and prove the placement over the image CFG.
/// Exit 0 verified, 1 rejected, 3 link failure (2, a usage or I/O error,
/// is thrown to main).
int cmdVerify(const Args& args) {
    const auto has = [&args](const char* flag) { return args.flags.contains(flag); };
    Module module =
        loadProgram(args.positional, parseWorkloadScale(args.get("scale", "small")));
    const bool bbr = !has("conventional");
    if (!has("no-transform")) applyBbrTransforms(module);

    const double mv = args.real("mv", 400);
    const FaultMap linkMap =
        has("map") ? loadMap(args.get("map", "")) : generateMap(mv, args.count("seed", 1));

    analysis::LintOptions lintOptions;
    lintOptions.bbrMode = bbr;
    lintOptions.maxBlockWords = static_cast<std::uint32_t>(
        args.count("max-block", analysis::maxPlaceableBlockWords(linkMap), UINT32_MAX));
    const auto findings = analysis::lintModule(module, lintOptions);
    std::fputs(analysis::formatFindings(findings).c_str(), stdout);
    const bool lintFailed = analysis::hasLintErrors(findings);

    if (has("lint-only")) {
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
        has("verify-map")    ? loadMap(args.get("verify-map", ""))
        : has("verify-seed") ? generateMap(mv, args.count("verify-seed", 1))
                             : linkMap;

    const analysis::PlacementProof proof =
        analysis::provePlacement(out->image, verifyMap, &module);
    std::fputs(analysis::formatProof(proof).c_str(), stdout);
    const bool ok = proof.verified && !lintFailed;
    std::printf("%s: %u reachable words over %u blocks (%u dead blocks, %u dead words), "
                "%zu violation(s), %u faulty cache words\n",
                ok ? "VERIFIED" : "REJECTED", proof.reachableWords, proof.reachableBlocks,
                proof.deadBlocks, proof.deadWords, proof.violations.size(),
                verifyMap.totalFaultyWords());
    return ok ? 0 : 1;
}

int cmdDisasm(const Args& args) {
    Module module = loadProgram(args.positional, WorkloadScale::Small);
    if (args.flags.contains("bbr")) applyBbrTransforms(module);
    std::fputs(disassemble(module).c_str(), stdout);
    return 0;
}

int cmdFaultmap(const Args& args) {
    const double mv = args.real("mv", 400);
    const FaultMap map = generateMap(mv, args.count("seed", 1));
    std::printf("# %u of %u words defective (%.1f%%) at %.0fmV\n", map.totalFaultyWords(),
                map.totalWords(), 100.0 * map.totalFaultyWords() / map.totalWords(), mv);
    const std::string text = faultMapToString(map);
    if (args.flags.contains("out")) {
        std::ofstream out(args.get("out", ""));
        out << text;
        std::printf("written to %s\n", args.get("out", "").c_str());
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

int cmdYield(const Args& args) {
    const std::uint64_t bits = args.count("bits", 262144);
    const double target = args.real("target", 0.999);
    const YieldAnalyzer analyzer;
    const Voltage vccmin = analyzer.vccmin(bits, target);
    std::printf("structure of %llu bits at %.3f yield target: Vccmin = %.0f mV\n",
                static_cast<unsigned long long>(bits), target, vccmin.millivolts());
    for (const auto& point : DvfsTable::paperPoints()) {
        std::printf("  yield at %.0fmV: %.6f\n", point.voltage.millivolts(),
                    analyzer.yield(point.voltage, bits));
    }
    return 0;
}

/// The job that `sweep` runs and `submit` sends, from the flags the two
/// share (each command's table still decides which flags it accepts).
serve::JobRequest jobFromArgs(const Args& args) {
    serve::JobRequest job;
    job.op = args.get("op", "sweep");
    job.id = args.get("id", "");
    job.benchmarks = args.get("benchmarks", "");
    job.schemes = args.get("schemes", "");
    job.scale = args.get("scale", job.scale);
    job.mv = args.get("mv", "");
    job.trials = static_cast<std::uint32_t>(
        args.count("trials", job.op == "run" ? 1 : job.trials, UINT32_MAX));
    job.threads = static_cast<unsigned>(args.count("threads", 0, obs::kMaxThreadSlots));
    job.seed = args.count("seed", job.seed);
    job.maxInstructions = args.count("max-instructions", 0);
    job.progress = args.flags.contains("progress");
    return job;
}

int cmdSweep(const Args& args) {
    // The same job-to-config path a served sweep takes, so the two agree.
    SweepConfig config = serve::configFromJob(jobFromArgs(args));
    // --corrupt-mapgen scales the sampled fault rate while the analytic
    // check keeps predicting from the physical model: the gate's negative
    // control (any value != 1 must make --analytic-check fail).
    config.systemTemplate.faultRateScale = args.real("corrupt-mapgen", 1);
    config.useReplay = !args.flags.contains("no-replay");
    config.batchLanes = static_cast<std::uint32_t>(args.count("batch", 0, UINT32_MAX));
    // --fail-at-leg: deliberately fail a VC_CHECK inside the Nth leg (1-based)
    // — the flight recorder's negative control (ci.sh asserts the dump).
    config.failAtLeg = static_cast<std::uint32_t>(args.count("fail-at-leg", 0, UINT32_MAX));

    // --flight-record: arm the async-signal-safe black box. Installed before
    // any worker starts so a crash anywhere in the sweep lands in the dump.
    obs::FlightRecorder* flight = nullptr;
    if (args.flags.contains("flight-record")) {
        obs::FlightRecorder::Options flightOptions;
        flightOptions.path = args.get("flight-record", "");
        flight = &obs::FlightRecorder::install(flightOptions);
    }

    // --trace FILE / --trace-job FILE: the sweep job's timeline — the job
    // scope stamps every leg event with its deterministic child span, and
    // the timeline is written as Chrome trace JSON after the run. --trace
    // adds the scheme / linker instant events (and the sampler's counters);
    // given both, the two files hold the same document.
    const bool instants = args.flags.contains("trace");
    const bool traced = instants || args.flags.contains("trace-job");

    // --telemetry-port: live exporter (GET /metrics, /progress, /healthz) on
    // a dedicated thread, started *before* the sweep so `voltcache top` and
    // Prometheus can watch it run. Port 0 binds an ephemeral port; the
    // chosen one is announced on stderr. --progress reads its ETA off the
    // same board.
    std::optional<obs::ProgressBoard> board;
    std::optional<obs::TelemetryServer> telemetry;
    if (args.flags.contains("progress") || args.flags.contains("telemetry-port")) {
        board.emplace();
    }
    if (args.flags.contains("telemetry-port")) {
        telemetry.emplace(args.count("telemetry-port", 0, 65535), *board);
        std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%u\n",
                     static_cast<unsigned>(telemetry->port()));
    }
    if (args.flags.contains("progress")) {
        // The job scope updates the board before this hook runs, so the ETA
        // already counts this tick.
        config.onProgress = [&board](const SweepProgress& progress) {
            char eta[32] = "--";
            if (const std::optional<double> seconds = board->etaSeconds()) {
                std::snprintf(eta, sizeof(eta), "%.0fs", *seconds);
            }
            if (progress.boundary) {
                std::fprintf(stderr,
                             "[%zu/%zu] %s done (%zu/%zu legs: %zu replayed, "
                             "%zu executed, %u workers, ETA %s)\n",
                             progress.benchmarksCompleted, progress.benchmarksTotal,
                             progress.benchmark.c_str(), progress.legsCompleted,
                             progress.legsTotal, progress.legsReplayed,
                             progress.legsExecuted, progress.workers, eta);
            } else {
                // Throttled leg tick — no benchmark finished yet.
                std::fprintf(stderr,
                             "[%zu/%zu] %zu/%zu legs (%zu replayed, %zu executed, "
                             "%u workers, ETA %s)\n",
                             progress.benchmarksCompleted, progress.benchmarksTotal,
                             progress.legsCompleted, progress.legsTotal,
                             progress.legsReplayed, progress.legsExecuted,
                             progress.workers, eta);
            }
        };
    }
    // --journal: bounded NDJSON leg lifecycle journal (--journal-max-bytes
    // caps the file; at the cap it rotates to <path>.1). The board, the
    // journal, the flight recorder and the job trace all see the same
    // tick/event stream.
    std::optional<obs::LegJournal> journal;
    if (args.flags.contains("journal")) {
        journal.emplace(args.get("journal", ""), /*autoDrain=*/true,
                        args.count("journal-max-bytes", 0));
    }

    const bool profiling = args.flags.contains("profile");
    if (profiling || telemetry.has_value()) {
        // Spans feed --profile and the exporter's /progress attribution.
        obs::Profiler::reset();
        obs::Profiler::setEnabled(true);
    }
    const auto wallStart = std::chrono::steady_clock::now();

    SweepResult result;
    {
        const SweepJobScope scope(
            config, "sweep",
            {board.has_value() ? &*board : nullptr, journal.has_value() ? &*journal : nullptr,
             flight, traced ? obs::makeRootContext("sweep") : obs::TraceContext{}, instants});
        result = runSweep(config);
    }
    if (traced) {
        const obs::JobTraceStore& store = obs::JobTraceStore::global();
        const std::string timeline = store.toChromeJson("sweep");
        for (const char* flag : {"trace", "trace-job"}) {
            if (args.flags.contains(flag)) writeTextFile(args.get(flag, ""), timeline);
        }
        // A full lane overwrites its oldest events: say so rather than hand
        // over a timeline that silently lost some. The index is small, and
        // its newest job is this sweep's.
        const JsonValue index = parseJson(store.indexJson());
        const JsonValue& job = index.find("jobs")->items.front();
        if (const double dropped = job.numberOr("droppedSpans", 0.0); dropped > 0) {
            std::fprintf(stderr,
                         "sweep: the trace kept %.0f events and overwrote %.0f (each thread "
                         "keeps its newest %zu leg and phase spans and %zu instant events)\n",
                         job.numberOr("spans", 0.0), dropped, obs::kTimelineLaneEvents,
                         obs::kInstantLaneEvents);
        }
    }
    if (journal.has_value()) journal->close();

    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart)
            .count();
    if (profiling || telemetry.has_value()) obs::Profiler::setEnabled(false);
    if (profiling) {
        ProfileExportMeta profileMeta;
        profileMeta.version = std::string(buildVersion());
        profileMeta.wallSeconds = wallSeconds;
        profileMeta.threads = config.threads;
        writeTextFile(args.get("profile", ""),
                      profileToJson(obs::Profiler::snapshot(),
                                    obs::MetricsRegistry::global().snapshot(),
                                    profileMeta));
    }

    std::optional<analysis::CrosscheckReport> analytic;
    if (args.flags.contains("analytic-check")) {
        analytic = analyticCrosscheck(result, config, args.real("check-z", 6));
        std::fputs(analysis::formatReport(*analytic).c_str(), stdout);
    }

    if (args.flags.contains("json")) {
        writeTextFile(args.get("json", ""),
                      sweepResultToJson(result, sweepExportMeta(config, analytic.has_value()
                                                                            ? &*analytic
                                                                            : nullptr)));
    }

    TextTable table({"scheme", "voltage", "norm runtime", "L2/1k", "norm EPI",
                     "yield losses"});
    const SweepGrid grid = sweepGrid(config);
    for (const SchemeKind scheme : grid.schemes) {
        for (const auto& point : grid.points) {
            const SweepCell& cell = result.cell(scheme, point.voltage);
            table.addRow({std::string(schemeName(scheme)),
                          formatDouble(point.voltage.millivolts(), 0) + "mV",
                          formatDouble(cell.normRuntime.mean(), 3),
                          formatDouble(cell.l2PerKilo.mean(), 1),
                          formatDouble(cell.normEpi.mean(), 3),
                          std::to_string(cell.linkFailures)});
        }
    }
    std::fputs(table.render().c_str(), stdout);
    // --telemetry-linger SECONDS: keep the exporter up after the sweep so an
    // external scraper that raced the run can still collect the final state
    // (ci.sh scrapes, then kills the process).
    if (telemetry.has_value() && args.flags.contains("telemetry-linger")) {
        std::this_thread::sleep_for(std::chrono::seconds(args.count("telemetry-linger", 0)));
    }
    if (analytic.has_value() && !analytic->passed()) {
        std::fprintf(stderr,
                     "sweep FAILED the analytic cross-check (max z %.2f)\n",
                     analytic->maxZ());
        return 1;
    }
    return 0;
}

/// Render the closed-form FFW/BBR curves (no simulation): per-voltage word
/// failure probability, FFW window pmf/mean and yield at every minimum
/// window, and BBR placement success (exact + provable bounds) at the
/// requested section size. `--json FILE` exports the same numbers.
int cmdModel(const Args& args) {
    const SystemConfig system; // default Table I geometry
    const std::uint32_t lines = system.l1Org.lines();
    const std::uint32_t wordsPerLine = system.l1Org.wordsPerBlock();
    const auto need = static_cast<std::uint32_t>(args.count("need", 12, UINT32_MAX));
    const FailureModel model;

    std::vector<OperatingPoint> points;
    if (args.flags.contains("mv")) {
        points = DvfsTable::parseMillivoltList(args.get("mv", ""));
    } else {
        const auto paper = DvfsTable::paperPoints();
        points.assign(paper.begin(), paper.end());
    }

    TextTable table({"voltage", "p(word)", "E[window]", "yield w>=1", "yield w>=4",
                     "P(place " + std::to_string(need) + "w)", "lower", "upper"});
    JsonWriter json;
    json.beginObject();
    json.member("tool", "voltcache");
    json.member("kind", "model");
    json.member("version", buildVersion());
    json.member("lines", lines);
    json.member("wordsPerLine", wordsPerLine);
    json.member("needWords", need);
    json.key("points");
    json.beginArray();
    for (const OperatingPoint& point : points) {
        const auto ffw =
            analysis::FfwModel::at(model, point.voltage, lines, wordsPerLine);
        const auto bbr =
            analysis::BbrModel::at(model, point.voltage, lines * wordsPerLine);
        table.addRow({formatDouble(point.voltage.millivolts(), 0) + "mV",
                      formatDouble(ffw.pWord(), 9),
                      formatDouble(ffw.meanWindowWords(), 4),
                      formatDouble(ffw.yield(1), 6), formatDouble(ffw.yield(4), 6),
                      formatDouble(bbr.placementSuccessExact(need), 6),
                      formatDouble(bbr.placementSuccessLower(need), 6),
                      formatDouble(bbr.placementSuccessUpper(need), 6)});
        json.beginObject();
        json.member("mv",
                    static_cast<std::int64_t>(point.voltage.millivolts() + 0.5));
        json.member("pWord", ffw.pWord());
        json.key("ffw");
        json.beginObject();
        json.member("meanWindowWords", ffw.meanWindowWords());
        json.key("windowPmf");
        json.beginArray();
        for (const double p : ffw.windowPmf()) json.value(p);
        json.endArray();
        json.key("yieldByMinWindow");
        json.beginArray();
        for (std::uint32_t w = 0; w <= wordsPerLine; ++w) json.value(ffw.yield(w));
        json.endArray();
        json.endObject();
        json.key("bbr");
        json.beginObject();
        json.member("expectedTotalChunks", bbr.expectedTotalChunks());
        json.member("placementSuccessExact", bbr.placementSuccessExact(need));
        json.member("placementSuccessLower", bbr.placementSuccessLower(need));
        json.member("placementSuccessUpper", bbr.placementSuccessUpper(need));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();

    std::printf("analytic FFW/BBR models: %ux%u-word L1, section need %u words\n",
                lines, wordsPerLine, need);
    std::fputs(table.render().c_str(), stdout);
    if (args.flags.contains("json")) writeTextFile(args.get("json", ""), json.str());
    return 0;
}

int cmdStats(const Args& args) {
    SystemConfig config = legConfigFromArgs(args);

    // Observer multiplexing: the locality profiler and (with --trace) the
    // timeline bridge watch the same run side by side.
    LocalityProfiler profiler;
    config.observers.push_back(&profiler);
    TimelineObserver timelineObserver;
    if (args.flags.contains("trace")) config.observers.push_back(&timelineObserver);

    const SystemResult result = simulateLeg(args, "stats", config);
    profiler.finalize();

    std::printf("program: %s   scheme: %s   %.0fmV / %.0fMHz   chip seed %llu\n",
                args.positional.c_str(), schemeName(config.scheme).data(),
                config.op.voltage.millivolts(), config.op.frequency.megahertz(),
                static_cast<unsigned long long>(config.faultMapSeed));
    if (result.linkFailed) {
        std::printf("BBR placement failed for this chip (yield loss)\n");
    } else {
        TextTable run({"metric", "value"});
        run.addRow({"instructions", std::to_string(result.run.instructions)});
        run.addRow({"cycles", std::to_string(result.run.cycles)});
        run.addRow({"IPC", formatDouble(result.run.ipc(), 3)});
        run.addRow({"runtime (ms)", formatDouble(result.runtimeSeconds * 1e3, 3)});
        run.addRow({"EPI (pJ)", formatDouble(result.epi * 1e12, 1)});
        run.addRow({"L2 / 1k instr", formatDouble(result.run.l2AccessesPerKilo(), 1)});
        run.addRow({"L1I miss ratio", formatDouble(result.icacheStats.missRatio(), 4)});
        run.addRow({"L1D miss ratio", formatDouble(result.dcacheStats.missRatio(), 4)});
        run.addRow({"spatial locality", formatDouble(profiler.meanSpatialLocality(), 3)});
        run.addRow({"word reuse rate", formatDouble(profiler.meanWordReuseRate(), 3)});
        if (result.linkStats.blocksPlaced > 0) {
            run.addRow({"link blocks", std::to_string(result.linkStats.blocksPlaced)});
            run.addRow({"link gap words", std::to_string(result.linkStats.gapWords)});
            run.addRow({"link scan restarts", std::to_string(result.linkStats.scanRestarts)});
            run.addRow({"link wrap-arounds", std::to_string(result.linkStats.wrapArounds)});
        }
        std::fputs(run.render().c_str(), stdout);
    }

    // The registry snapshot: everything the leg published, merged.
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    TextTable metrics({"metric", "labels", "value"});
    for (const auto& snap : snapshot) {
        std::string labels;
        for (const auto& [k, v] : snap.labels) {
            if (!labels.empty()) labels += ",";
            labels += k + "=" + v;
        }
        std::string value;
        switch (snap.kind) {
            case obs::MetricKind::Counter: value = std::to_string(snap.count); break;
            case obs::MetricKind::Gauge: value = formatDouble(snap.value, 6); break;
            case obs::MetricKind::Histogram:
                value = "n=" + std::to_string(snap.count) +
                        " mean=" + formatDouble(snap.value, 1);
                break;
        }
        metrics.addRow({snap.name, labels, value});
    }
    std::fputs(metrics.render().c_str(), stdout);

    if (args.flags.contains("json")) {
        JsonWriter json;
        json.beginObject();
        json.member("tool", "voltcache");
        json.member("kind", "stats");
        json.member("version", buildVersion());
        json.member("benchmark", args.positional);
        json.member("scheme", schemeName(config.scheme));
        json.member("mv",
                    static_cast<std::int64_t>(config.op.voltage.millivolts() + 0.5));
        json.member("seed", config.faultMapSeed);
        json.key("result");
        writeJson(json, result);
        json.member("spatialLocality", profiler.meanSpatialLocality());
        json.member("wordReuseRate", profiler.meanWordReuseRate());
        json.key("metrics");
        obs::writeMetrics(json, snapshot);
        json.endObject();
        writeTextFile(args.get("json", ""), json.str());
    }
    return result.linkFailed ? 1 : 0;
}

/// Human-readable rendering of a profile or sweep JSON artifact: per-span
/// self-times for `kind:"profile"`, the forensics block for `kind:"sweep"`.
int cmdProfile(const Args& args) {
    if (args.positional.empty()) throw std::runtime_error("need a JSON file");
    std::ifstream in(args.positional);
    if (!in) throw std::runtime_error("cannot open '" + args.positional + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = parseJson(text.str());
    const std::string kind = doc.stringOr("kind", "");

    if (kind == "profile") {
        const double wall = doc.numberOr("wallSeconds", 0.0);
        std::printf("profile: wall %.3fs, self-time coverage %.1f%% (%u threads)\n", wall,
                    100.0 * doc.numberOr("coverage", 0.0),
                    static_cast<unsigned>(doc.numberOr("threads", 0.0)));
        printSpanTable(doc.find("spans"));
        return 0;
    }

    if (kind == "sweep") {
        const JsonValue* forensics = doc.find("forensics");
        if (forensics == nullptr || forensics->items.empty()) {
            std::printf("no forensics block in '%s' (re-run the sweep with this build)\n",
                        args.positional.c_str());
            return 1;
        }
        TextTable table({"scheme", "voltage", "legs", "ffw recenters", "bbr blocks",
                         "yield losses"});
        for (const JsonValue& cell : forensics->items) {
            const JsonValue* ffw = cell.find("ffw");
            const JsonValue* bbr = cell.find("bbr");
            std::uint64_t losses = 0;
            if (const JsonValue* yieldLoss = cell.find("yieldLoss"); yieldLoss != nullptr) {
                for (const auto& [cause, count] : yieldLoss->members) {
                    losses += static_cast<std::uint64_t>(count.number);
                }
            }
            table.addRow(
                {cell.stringOr("scheme", "?"),
                 std::to_string(static_cast<int>(cell.numberOr("mv", 0.0))) + "mV",
                 std::to_string(static_cast<std::uint64_t>(cell.numberOr("legs", 0.0))),
                 ffw != nullptr ? std::to_string(static_cast<std::uint64_t>(
                                      ffw->numberOr("recenters", 0.0)))
                                : "-",
                 bbr != nullptr ? std::to_string(static_cast<std::uint64_t>(
                                      bbr->numberOr("blocksPlaced", 0.0)))
                                : "-",
                 std::to_string(losses)});
        }
        std::fputs(table.render().c_str(), stdout);
        // Per-cell yield-loss cause breakdown, where any occurred.
        for (const JsonValue& cell : forensics->items) {
            const JsonValue* yieldLoss = cell.find("yieldLoss");
            if (yieldLoss == nullptr || yieldLoss->members.empty()) continue;
            std::printf("yield losses for %s @ %dmV:", cell.stringOr("scheme", "?").c_str(),
                        static_cast<int>(cell.numberOr("mv", 0.0)));
            for (const auto& [cause, count] : yieldLoss->members) {
                std::printf(" %s=%llu", cause.c_str(),
                            static_cast<unsigned long long>(count.number));
            }
            std::printf("\n");
        }
        return 0;
    }

    throw std::runtime_error("unrecognized document kind '" + kind +
                             "' (expected \"profile\" or \"sweep\")");
}

/// Human-readable rendering of the tracing artifacts: a job's timeline
/// (Chrome trace-event JSON from --trace, --trace-job or GET /trace/<job>), a
/// flight-recorder crash dump ("kind":"flight"), or the /trace index. The
/// positional is a file when one exists at that path, otherwise host:port of
/// a live telemetry endpoint (--job picks the job; without it, the index).
int cmdTrace(const Args& args) {
    if (args.positional.empty()) {
        throw std::runtime_error(
            "need <host:port>, a trace JSON file, or a flight dump");
    }
    std::string body;
    if (std::ifstream in(args.positional); in) {
        std::ostringstream text;
        text << in.rdbuf();
        body = text.str();
    } else {
        const auto target = parseEndpoint(args.positional);
        if (!target.has_value()) {
            throw std::runtime_error("'" + args.positional +
                                     "' is neither a readable file nor host:port");
        }
        const std::string path = args.flags.contains("job")
                                     ? "/trace/" + args.get("job", "")
                                     : "/trace";
        body = net::httpGet(target->first, target->second, path);
    }
    const JsonValue doc = parseJson(body);
    const std::string kind = doc.stringOr("kind", "");

    if (kind == "traceIndex") {
        TextTable table({"job", "trace", "spans", "dropped", "state"});
        if (const JsonValue* jobs = doc.find("jobs"); jobs != nullptr) {
            for (const JsonValue& job : jobs->items) {
                table.addRow({job.stringOr("job", "?"), job.stringOr("trace", "?"),
                              std::to_string(static_cast<std::uint64_t>(
                                  job.numberOr("spans", 0.0))),
                              std::to_string(static_cast<std::uint64_t>(
                                  job.numberOr("droppedSpans", 0.0))),
                              [&job] {
                                  const JsonValue* open = job.find("open");
                                  return open != nullptr && open->asBool() ? "open"
                                                                           : "closed";
                              }()});
            }
        }
        std::fputs(table.render().c_str(), stdout);
        std::printf("(fetch one with `voltcache trace <host:port> --job <job>`)\n");
        return 0;
    }

    if (kind == "trace") {
        const JsonValue* open = doc.find("open");
        std::printf("trace: job=%s trace=%s spans=%llu dropped=%llu (%s)\n",
                    doc.stringOr("job", "?").c_str(),
                    doc.stringOr("trace", "?").c_str(),
                    static_cast<unsigned long long>(doc.numberOr("spanCount", 0.0)),
                    static_cast<unsigned long long>(
                        doc.numberOr("droppedSpans", 0.0)),
                    open != nullptr && open->asBool() ? "open" : "closed");
        const JsonValue* events = doc.find("traceEvents");
        if (events == nullptr || events->items.empty()) {
            std::printf("no events recorded\n");
            return 0;
        }
        // Timeline rows relative to the job's open; cached legs show a
        // zero-cost duration (the store-lookup wall time lives in wallNs).
        std::uint64_t legs = 0;
        std::uint64_t cached = 0;
        std::uint64_t replayed = 0;
        for (const JsonValue& event : events->items) {
            if (event.stringOr("cat", "").rfind("leg", 0) != 0) continue;
            ++legs;
            if (const JsonValue* eventArgs = event.find("args");
                eventArgs != nullptr) {
                if (const JsonValue* c = eventArgs->find("cached");
                    c != nullptr && c->asBool()) {
                    ++cached;
                }
                if (const JsonValue* r = eventArgs->find("replayed");
                    r != nullptr && r->asBool()) {
                    ++replayed;
                }
            }
        }
        std::printf("legs %llu (%llu replayed, %llu cached/zero-cost), "
                    "%zu events total\n",
                    static_cast<unsigned long long>(legs),
                    static_cast<unsigned long long>(replayed),
                    static_cast<unsigned long long>(cached),
                    events->items.size());
        const std::uint64_t limit = args.count("limit", 40);
        TextTable table({"event", "tid", "start ms", "dur ms", "notes"});
        std::size_t shown = 0;
        for (const JsonValue& event : events->items) {
            if (shown == limit) break;
            ++shown;
            std::string notes;
            if (const JsonValue* eventArgs = event.find("args");
                eventArgs != nullptr) {
                const auto flag = [&notes, eventArgs](const char* name) {
                    const JsonValue* value = eventArgs->find(name);
                    if (value == nullptr || !value->asBool()) return;
                    if (!notes.empty()) notes += ",";
                    notes += name;
                };
                flag("replayed");
                flag("cached");
                flag("linkFailed");
            }
            table.addRow({event.stringOr("name", "?"),
                          std::to_string(static_cast<std::uint64_t>(
                              event.numberOr("tid", 0.0))),
                          formatDouble(event.numberOr("ts", 0.0) * 1e-3, 3),
                          formatDouble(event.numberOr("dur", 0.0) * 1e-3, 3),
                          notes});
        }
        std::fputs(table.render().c_str(), stdout);
        if (events->items.size() > shown) {
            std::printf("... %zu more events (raise --limit, or load the JSON in "
                        "Perfetto)\n",
                        events->items.size() - shown);
        }
        return 0;
    }

    if (kind == "flight") {
        std::printf("flight dump: reason=%s%s%s\n",
                    doc.stringOr("reason", "?").c_str(),
                    doc.find("detail") != nullptr ? " detail=" : "",
                    doc.stringOr("detail", "").c_str());
        if (doc.find("job") != nullptr) {
            std::printf("job=%s trace=%s\n", doc.stringOr("job", "?").c_str(),
                        doc.stringOr("trace", "-").c_str());
        }
        if (const JsonValue* progress = doc.find("progress"); progress != nullptr) {
            std::printf("progress: %llu/%llu legs (%llu replayed, %llu executed, "
                        "%llu cached), %llu/%llu benchmarks, %u workers\n",
                        static_cast<unsigned long long>(
                            progress->numberOr("legsCompleted", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("legsTotal", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("legsReplayed", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("legsExecuted", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("legsCached", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("benchmarksCompleted", 0.0)),
                        static_cast<unsigned long long>(
                            progress->numberOr("benchmarksTotal", 0.0)),
                        static_cast<unsigned>(progress->numberOr("workers", 0.0)));
        }
        if (const JsonValue* threads = doc.find("threads");
            threads != nullptr && !threads->items.empty()) {
            std::printf("active span stacks at dump time:\n");
            std::size_t index = 0;
            for (const JsonValue& thread : threads->items) {
                std::string stack;
                if (const JsonValue* spans = thread.find("spans");
                    spans != nullptr) {
                    for (const JsonValue& span : spans->items) {
                        if (!stack.empty()) stack += " > ";
                        stack += span.string;
                    }
                }
                std::printf("  thread %zu: %s\n", index++,
                            stack.empty() ? "(idle)" : stack.c_str());
            }
        }
        const JsonValue* events = doc.find("events");
        std::printf("events: %llu noted, %llu dropped, ring holds %zu\n",
                    static_cast<unsigned long long>(
                        doc.numberOr("eventsNoted", 0.0)),
                    static_cast<unsigned long long>(
                        doc.numberOr("eventsDropped", 0.0)),
                    events != nullptr ? events->items.size() : 0);
        if (events != nullptr && !events->items.empty()) {
            TextTable table({"seq", "ev", "leg", "worker", "benchmark", "scheme",
                             "mv", "trial", "dur ms", "outcome"});
            for (const JsonValue& event : events->items) {
                const JsonValue* duration = event.find("durationNs");
                table.addRow(
                    {std::to_string(
                         static_cast<std::uint64_t>(event.numberOr("seq", 0.0))),
                     event.stringOr("ev", "?"),
                     std::to_string(
                         static_cast<std::uint64_t>(event.numberOr("leg", 0.0))),
                     std::to_string(static_cast<std::uint64_t>(
                         event.numberOr("worker", 0.0))),
                     event.stringOr("benchmark", "?"), event.stringOr("scheme", "?"),
                     std::to_string(
                         static_cast<int>(event.numberOr("mv", 0.0))),
                     std::to_string(
                         static_cast<std::uint64_t>(event.numberOr("trial", 0.0))),
                     duration != nullptr
                         ? formatDouble(duration->asNumber() * 1e-6, 3)
                         : "-",
                     event.stringOr("outcome", "-")});
            }
            std::fputs(table.render().c_str(), stdout);
        }
        if (const JsonValue* metrics = doc.find("metrics");
            metrics != nullptr && !metrics->items.empty()) {
            std::printf("metrics mirror: %zu entries (newest refresh before the "
                        "dump)\n",
                        metrics->items.size());
        }
        return 0;
    }

    throw std::runtime_error("unrecognized document kind '" + kind +
                             "' (expected \"trace\", \"traceIndex\" or \"flight\")");
}

/// Refreshing terminal dashboard over a live telemetry endpoint: scrape
/// GET /progress (and optionally /metrics), render benchmarks / legs /
/// throughput / ETA / span attribution / counter rates, repeat until the
/// sweep reports done or --iterations runs out.
int cmdTop(const Args& args) {
    const auto target = parseEndpoint(args.positional);
    if (!target.has_value()) throw std::runtime_error("need host:port (e.g. 127.0.0.1:9090)");
    const auto& [host, port] = *target;
    const auto interval = std::chrono::milliseconds(args.count("interval", 1000));
    const std::uint64_t iterations =
        args.flags.contains("once") ? 1 : args.count("iterations", 0);
    const bool live = iterations != 1;

    for (std::uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
        if (i != 0) std::this_thread::sleep_for(interval);
        const std::string body = net::httpGet(host, port, "/progress");
        if (args.flags.contains("progress-out")) {
            writeTextFile(args.get("progress-out", ""), body);
        }
        if (args.flags.contains("metrics-out")) {
            writeTextFile(args.get("metrics-out", ""),
                          net::httpGet(host, port, "/metrics"));
        }
        const JsonValue doc = parseJson(body);
        const JsonValue* doneValue = doc.find("done");
        const bool done = doneValue != nullptr && doneValue->asBool();

        if (live) std::fputs("\x1b[2J\x1b[H", stdout); // clear + home per frame
        std::printf("voltcache top — %s:%u   elapsed %.1fs   %s\n",
                    host.c_str(), static_cast<unsigned>(port),
                    doc.numberOr("elapsedSeconds", 0.0),
                    done ? "done" : "running");
        if (const JsonValue* benchmarks = doc.find("benchmarks");
            benchmarks != nullptr) {
            std::printf("benchmarks  %llu/%llu   latest: %s\n",
                        static_cast<unsigned long long>(
                            benchmarks->numberOr("completed", 0.0)),
                        static_cast<unsigned long long>(
                            benchmarks->numberOr("total", 0.0)),
                        benchmarks->stringOr("latest", "-").c_str());
        }
        if (const JsonValue* legs = doc.find("legs"); legs != nullptr) {
            std::printf(
                "legs        %llu/%llu   (replayed %llu, executed %llu)\n",
                static_cast<unsigned long long>(legs->numberOr("completed", 0.0)),
                static_cast<unsigned long long>(legs->numberOr("total", 0.0)),
                static_cast<unsigned long long>(legs->numberOr("replayed", 0.0)),
                static_cast<unsigned long long>(legs->numberOr("executed", 0.0)));
        }
        const JsonValue* eta = doc.find("etaSeconds");
        std::printf("throughput  %.1f legs/s   workers %u   ETA %s\n",
                    doc.numberOr("ewmaLegsPerSec", 0.0),
                    static_cast<unsigned>(doc.numberOr("workers", 0.0)),
                    eta != nullptr && !eta->isNull()
                        ? (formatDouble(eta->asNumber(), 1) + "s").c_str()
                        : "--");
        if (const JsonValue* spans = doc.find("spans");
            spans != nullptr && !spans->items.empty()) {
            printSpanTable(spans);
        }
        if (const JsonValue* rates = doc.find("rates");
            rates != nullptr && !rates->items.empty()) {
            TextTable table({"counter", "labels", "delta", "per sec"});
            for (const JsonValue& rate : rates->items) {
                std::string labels;
                if (const JsonValue* labelObject = rate.find("labels");
                    labelObject != nullptr) {
                    for (const auto& [k, v] : labelObject->members) {
                        if (!labels.empty()) labels += ",";
                        labels += k + "=" + v.string;
                    }
                }
                table.addRow({rate.stringOr("name", "?"), labels,
                              std::to_string(static_cast<std::uint64_t>(
                                  rate.numberOr("delta", 0.0))),
                              formatDouble(rate.numberOr("perSec", 0.0), 1)});
            }
            std::fputs(table.render().c_str(), stdout);
        }
        std::fflush(stdout);
        if (done) break;
    }
    return 0;
}

/// The running daemon, for the async-signal-safe SIGINT/SIGTERM handler
/// (Server::requestStop is two atomic stores — no locks, no allocation).
std::atomic<serve::Server*> g_server{nullptr};

void handleStopSignal(int /*signum*/) {
    serve::Server* server = g_server.load(std::memory_order_acquire);
    if (server != nullptr) server->requestStop();
}

int cmdServe(const Args& args) {
    serve::ServeOptions options;
    options.port = static_cast<std::uint16_t>(args.count("port", 0, 65535));
    options.storeDirectory = args.get("store", "");
    options.storeBudgetBytes = args.count("store-budget", 256, UINT64_MAX >> 20)
                               << 20; // MB → bytes
    options.threads = static_cast<unsigned>(args.count("threads", 0, obs::kMaxThreadSlots));
    options.journalPath = args.get("journal", "");
    options.journalMaxBytes = args.count("journal-max-bytes", 0);
    options.flightRecordPath = args.get("flight-record", "");
    options.idleTimeout =
        std::chrono::milliseconds(args.count("idle-timeout", options.idleTimeout.count()));

    // --telemetry-port: same exporter as `sweep`, but long-lived — the board
    // is re-labelled per job (beginJob) so /progress always describes the
    // job currently on the executor.
    std::optional<obs::ProgressBoard> board;
    std::optional<obs::TelemetryServer> telemetry;
    if (args.flags.contains("telemetry-port")) {
        board.emplace();
        telemetry.emplace(args.count("telemetry-port", 0, 65535), *board);
        options.board = &*board;
        obs::Profiler::reset();
        obs::Profiler::setEnabled(true);
        std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%u\n",
                     static_cast<unsigned>(telemetry->port()));
    }

    serve::Server server(options);
    g_server.store(&server, std::memory_order_release);
    struct sigaction action {};
    action.sa_handler = handleStopSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    std::fprintf(stderr, "serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));

    server.run();
    g_server.store(nullptr, std::memory_order_release);

    const serve::Server::Totals totals = server.totals();
    const serve::LegStore::Stats store = server.store().stats();
    std::printf("serve: drained after %llu connection(s), %llu job(s) "
                "(%llu rejected, %llu errored)\n",
                static_cast<unsigned long long>(totals.connections),
                static_cast<unsigned long long>(totals.jobsCompleted),
                static_cast<unsigned long long>(totals.jobsRejected),
                static_cast<unsigned long long>(totals.jobErrors));
    std::printf("store: %llu hits / %llu misses, %llu entries "
                "(%llu loaded, %llu rejected, %llu evicted)\n",
                static_cast<unsigned long long>(store.hits),
                static_cast<unsigned long long>(store.misses),
                static_cast<unsigned long long>(store.entries),
                static_cast<unsigned long long>(store.loaded),
                static_cast<unsigned long long>(store.rejected),
                static_cast<unsigned long long>(store.evictions));
    return 0;
}

int cmdSubmit(const Args& args) {
    const auto target = parseEndpoint(args.positional);
    if (!target.has_value()) throw std::runtime_error("need host:port (e.g. 127.0.0.1:7420)");
    const auto& [host, port] = *target;

    serve::JobRequest job = jobFromArgs(args);
    // End-to-end tracing: the client mints the job's 128-bit trace id (or
    // forwards --trace-id) so the whole path — queue, executor, every leg —
    // is queryable afterwards at /trace/<id> or via `voltcache trace`.
    job.trace = args.get("trace-id", "");
    if (job.trace.empty()) {
        job.trace = obs::traceIdHex(
            obs::makeRootContext(job.id.empty() ? "submit" : job.id));
    } else if (obs::TraceContext probe; !obs::parseTraceIdHex(job.trace, probe)) {
        throw std::runtime_error("--trace-id must be 32 hex chars");
    }

    // The receive timeout must cover the whole job, not one read.
    const auto timeout = std::chrono::milliseconds(args.count("timeout", 600000));
    net::Socket socket = net::tcpConnect(host, port, timeout);
    // wall = send to the document's last byte; against the server's
    // elapsed it exposes any transport stall.
    const auto sent = std::chrono::steady_clock::now();
    if (!socket.sendAll(serve::jobToJson(job) + "\n")) {
        throw std::runtime_error("send failed");
    }

    serve::LineReader reader(socket, serve::kMaxResponseLineBytes);
    std::string line;
    while (true) {
        const serve::LineReader::Status status = reader.next(line);
        if (status == serve::LineReader::Status::Timeout) {
            throw std::runtime_error("timed out waiting for the server");
        }
        if (status != serve::LineReader::Status::Line) {
            throw std::runtime_error("connection closed before the result");
        }
        const JsonValue event = parseJson(line);
        const std::string kind = event.stringOr("ev", "");
        if (kind == "accepted") {
            if (job.progress) {
                std::fprintf(stderr,
                             "submit: accepted (queue depth %llu, trace %s)\n",
                             static_cast<unsigned long long>(
                                 event.numberOr("queue", 0.0)),
                             event.stringOr("trace", job.trace).c_str());
            }
            continue;
        }
        if (kind == "progress") {
            std::fprintf(stderr, "submit: %.0f/%.0f legs (%.0f cached)\n",
                         event.numberOr("legsCompleted", 0.0),
                         event.numberOr("legsTotal", 0.0),
                         event.numberOr("legsCached", 0.0));
            continue;
        }
        if (kind == "error") {
            std::fprintf(stderr, "submit: server error: %s\n",
                         event.stringOr("message", "?").c_str());
            return 1;
        }
        if (kind != "result") continue;

        // The next line is the raw sweep document, framed by "bytes".
        const auto documentBytes =
            static_cast<std::size_t>(event.numberOr("bytes", 0.0));
        std::string document;
        if (reader.next(document) != serve::LineReader::Status::Line) {
            throw std::runtime_error("document line missing");
        }
        const double wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - sent).count();
        if (document.size() != documentBytes) {
            throw std::runtime_error("document framing mismatch (" +
                                     std::to_string(document.size()) + " vs " +
                                     std::to_string(documentBytes) + " bytes)");
        }
        if (args.flags.contains("json")) {
            // writeTextFile appends the same trailing newline as cmdSweep,
            // keeping the artifact byte-identical to the direct path.
            writeTextFile(args.get("json", ""), document);
        }
        const bool ok = [&event] {
            const JsonValue* value = event.find("ok");
            return value == nullptr || value->asBool();
        }();
        std::printf("submit: id=%s ok=%d legs=%llu cached=%llu hits=%llu "
                    "misses=%llu hitRate=%.4f elapsed=%.3fs wall=%.3fs trace=%s\n",
                    event.stringOr("id", "").c_str(), ok ? 1 : 0,
                    static_cast<unsigned long long>(event.numberOr("legs", 0.0)),
                    static_cast<unsigned long long>(
                        event.numberOr("legsCached", 0.0)),
                    static_cast<unsigned long long>(event.numberOr("storeHits", 0.0)),
                    static_cast<unsigned long long>(
                        event.numberOr("storeMisses", 0.0)),
                    event.numberOr("hitRate", 0.0),
                    event.numberOr("elapsedSeconds", 0.0), wallSeconds,
                    event.stringOr("trace", job.trace).c_str());
        return ok ? 0 : 1;
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: voltcache <command> [options]\n"
                 "  run <prog.s|benchmark> [--scheme S] [--mv V] [--seed N]\n"
                 "      [--max-instructions N] [--json FILE] [--trace FILE]\n"
                 "  stats <prog.s|benchmark> [--scheme S] [--mv V] [--seed N]\n"
                 "      [--max-instructions N] [--json FILE] [--trace FILE]\n"
                 "  verify <prog.s|benchmark> [--mv V] [--seed N] [--map FILE]\n"
                 "      [--verify-seed N] [--verify-map FILE] [--scale S] [--no-transform]\n"
                 "      [--conventional] [--lint-only] [--max-block W]\n"
                 "      (static BBR proof; exit 0 verified, 1 rejected, 3 link failure)\n"
                 "  disasm <prog.s|benchmark> [--bbr]\n"
                 "  faultmap [--mv V] [--seed N] [-o FILE]\n"
                 "  yield [--bits N] [--target Y]\n"
                 "  sweep [--trials N] [--benchmarks a,b,...] [--scale S] [--threads N<=64]\n"
                 "      [--max-instructions N] [--mv V1,V2,...] [--json FILE]\n"
                 "      [--trace FILE]  (the job timeline with instant events; each thread\n"
                 "       keeps its newest 8192 leg and phase spans and, apart from them,\n"
                 "       its newest 32768 instant events)\n"
                 "      [--progress]\n"
                 "      [--profile FILE]  (self-profile: per-phase span times + metrics)\n"
                 "      [--no-replay]  (disable the record-once/replay-many fast path;\n"
                 "       results are bit-identical either way)\n"
                 "      [--batch N]  (lanes per replay batch; 0 = engine default 32;\n"
                 "       results are bit-identical for every N)\n"
                 "      [--analytic-check] [--check-z Z]  (gate the MC result against\n"
                 "       the closed-form FFW/BBR models; nonzero exit on divergence)\n"
                 "      [--corrupt-mapgen SCALE]  (deliberately scale the sampled fault\n"
                 "       rate — the analytic gate's negative control)\n"
                 "      [--telemetry-port N]  (serve GET /metrics /progress /healthz on\n"
                 "       127.0.0.1:N while the sweep runs; 0 = ephemeral port)\n"
                 "      [--telemetry-linger SECONDS]  (keep the exporter up after the\n"
                 "       sweep so external scrapers can collect the final state)\n"
                 "      [--journal FILE]  (NDJSON leg lifecycle journal: one line per\n"
                 "       enqueue/start/finish; bounded, drops rather than stalls)\n"
                 "      [--journal-max-bytes N]  (rotate the journal to FILE.1 at N\n"
                 "       bytes; 0 = unbounded)\n"
                 "      [--trace-job FILE]  (end-to-end job tracing: mint a trace id,\n"
                 "       stamp every leg with its deterministic span, write the span\n"
                 "       tree as Chrome trace JSON — render with `voltcache trace`)\n"
                 "      [--flight-record FILE]  (async-signal-safe crash flight\n"
                 "       recorder: recent leg events + progress + metrics + span\n"
                 "       stacks, dumped on SIGSEGV/SIGABRT/contract failure)\n"
                 "      [--fail-at-leg N]  (deliberately fail a contract check inside\n"
                 "       the Nth leg — the flight recorder's negative control)\n"
                 "  top <host:port> [--interval MS] [--iterations N] [--once]\n"
                 "      [--metrics-out FILE] [--progress-out FILE]\n"
                 "      (refreshing dashboard over a live --telemetry-port endpoint)\n"
                 "  serve [--port P] [--store DIR] [--store-budget MB] [--threads N]\n"
                 "      [--journal FILE] [--journal-max-bytes N] [--telemetry-port N]\n"
                 "      [--flight-record FILE] [--idle-timeout MS]\n"
                 "      (sweep-as-a-service daemon with a content-addressed leg-result\n"
                 "       store; SIGINT/SIGTERM drain gracefully; every job's span tree\n"
                 "       is served at GET /trace/<job> on the telemetry port)\n"
                 "  submit <host:port> [--op sweep|run|verify] [--trials N]\n"
                 "      [--benchmarks a,b,...] [--schemes a,b,...] [--scale S]\n"
                 "      [--mv V1,V2,...] [--threads N] [--seed N] [--max-instructions N]\n"
                 "      [--id LABEL] [--json FILE] [--progress] [--timeout MS]\n"
                 "      [--trace-id HEX32]  (send one job to a running serve daemon;\n"
                 "       --json receives the byte-identical sweep document; the job's\n"
                 "       trace id is minted client-side and echoed in the summary)\n"
                 "  trace <host:port | trace.json | flight.json> [--job J] [--limit N]\n"
                 "      (render a job's span tree or a flight-recorder crash dump;\n"
                 "       host:port fetches /trace or /trace/<--job> from a live\n"
                 "       telemetry endpoint)\n"
                 "  model [--mv V1,V2,...] [--need WORDS] [--json FILE]\n"
                 "      (closed-form FFW/BBR curves, no simulation)\n"
                 "  profile <profile.json|sweep.json>  (render span times / forensics)\n"
                 "  list\n"
                 "a flag the command does not read, a number that does not parse whole,\n"
                 "or an I/O error exits 2\n");
    return 2;
}

const std::vector<Command> kCommands = {
    {"run", cmdRun, {"scheme", "mv", "seed", "max-instructions", "json", "trace"}, {}},
    {"stats", cmdStats, {"scheme", "mv", "seed", "max-instructions", "json", "trace"}, {}},
    {"verify", cmdVerify,
     {"mv", "seed", "map", "verify-seed", "verify-map", "scale", "max-block"},
     {"no-transform", "conventional", "lint-only"}},
    {"disasm", cmdDisasm, {}, {"bbr"}},
    {"faultmap", cmdFaultmap, {"mv", "seed", "out"}, {}},
    {"yield", cmdYield, {"bits", "target"}, {}},
    {"sweep", cmdSweep,
     {"trials", "scale", "max-instructions", "threads", "benchmarks", "mv", "corrupt-mapgen",
      "batch", "fail-at-leg", "flight-record", "trace", "trace-job", "telemetry-port",
      "telemetry-linger", "journal", "journal-max-bytes", "profile", "check-z", "json"},
     {"progress", "no-replay", "analytic-check"}},
    {"top", cmdTop, {"interval", "iterations", "progress-out", "metrics-out"}, {"once"}},
    {"serve", cmdServe,
     {"port", "store", "store-budget", "threads", "journal", "journal-max-bytes",
      "flight-record", "idle-timeout", "telemetry-port"},
     {}},
    {"submit", cmdSubmit,
     {"op", "id", "benchmarks", "schemes", "scale", "mv", "trials", "threads", "seed",
      "max-instructions", "trace-id", "timeout", "json"},
     {"progress"}},
    {"model", cmdModel, {"mv", "need", "json"}, {}},
    {"profile", cmdProfile, {}, {}},
    {"trace", cmdTrace, {"job", "limit"}, {}},
    {"list", cmdList, {}, {}},
};

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string name = argv[1];
    const auto command = std::ranges::find(kCommands, name, &Command::name);
    if (command == kCommands.end()) return usage();
    try {
        return command->handler(parseArgs(argc, argv, 2, *command));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "voltcache %s: %s\n", name.c_str(), e.what());
        return 2;
    }
}
