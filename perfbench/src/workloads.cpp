// The three benchmark workloads, run untraced:
//   sweep_small  runSweep over the full paper grid at Small scale;
//   ffwbbr_deep  runSweep over FFW+BBR at 400/440 mV, Tiny scale, 512 trials;
//   serve_mix    one closed-loop client of an in-process serve::Server,
//                alternating store-hit and store-miss jobs.
// Each also checks its outputs; a failed check counts as a failed operation.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>

#include "common/hash.h"
#include "common/json_parse.h"
#include "common/rng.h"
#include "common/version.h"
#include "compiler/passes.h"
#include "core/analytic_gate.h"
#include "core/replay.h"
#include "core/report.h"
#include "workload/workload.h"

namespace vcbench {

using namespace voltcache;

namespace {

/// SHA-256 of canonicalJson at workload seed 0, per workload. A change that
/// alters simulated results must update these deliberately.
const std::map<std::string, std::string>& pinnedDigests() {
    static const std::map<std::string, std::string> pinned = {
        {"sweep_small", "d6a246bb47eb18d9f7ce60801525cf88f69c1c506b48549e36afffbaa1042730"},
        {"ffwbbr_deep", "7739b2186dc1d82920f459ef7bffa37fc4d6f69fe60de68133eabb17bb05c55f"},
        {"serve_mix", "c34d7b99ed13aa344e930d281ed50ae8ed0d3d7f5f1cf5da304cda5e388ea7c2"},
    };
    return pinned;
}

/// Set-up repetitions; run.py reports their median. A sweep workload times
/// kSetupRepsPerSweep set-ups after each timed sweep; serve_mix repeats
/// server set-up (each shutdown takes one ~200 ms accept-loop poll) until
/// both floors are met or the cap is reached.
constexpr int kSetupRepsPerSweep = 2;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 2.0;
constexpr std::size_t kMinServeJobsPerKind = 100;
/// A server that keeps failing jobs ends the timed loop instead of holding
/// it until the run's timeout.
constexpr std::uint64_t kMaxServeFailures = 10;
/// Every Nth miss job's document is re-derived with a direct runSweep.
constexpr std::uint64_t kMissCheckStride = 10;

const char* scaleName(WorkloadScale scale) {
    switch (scale) {
        case WorkloadScale::Tiny: return "tiny";
        case WorkloadScale::Small: return "small";
        case WorkloadScale::Reference: return "reference";
    }
    return "?";
}

WorkloadScale parseScale(const std::string& name) {
    if (name == "tiny") return WorkloadScale::Tiny;
    if (name == "small") return WorkloadScale::Small;
    if (name == "reference") return WorkloadScale::Reference;
    throw std::runtime_error("unknown scale '" + name + "'");
}

std::vector<std::string> splitCsv(const std::string& text) {
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::size_t end = comma == std::string::npos ? text.size() : comma;
        if (end > pos) parts.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return parts;
}

SchemeKind parseScheme(const std::string& name) {
    for (const SchemeKind kind :
         {SchemeKind::DefectFree, SchemeKind::Conventional760, SchemeKind::Robust8T,
          SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
          SchemeKind::IdcPlus, SchemeKind::FfwBbr}) {
        if (schemeName(kind) == name) return kind;
    }
    throw std::runtime_error("unknown scheme '" + name + "'");
}

std::vector<SchemeKind> gridSchemes(const SweepConfig& config) {
    return config.schemes.empty() ? paperSchemes() : config.schemes;
}

std::vector<OperatingPoint> gridPoints(const SweepConfig& config) {
    if (!config.points.empty()) return config.points;
    const auto low = DvfsTable::lowVoltagePoints();
    return {low.begin(), low.end()};
}

int millivolts(const OperatingPoint& point) {
    return static_cast<int>(std::lround(point.voltage.millivolts()));
}

/// Benchmark names of the grid (config.benchmarks, or all ten).
std::vector<std::string> gridBenchmarks(const SweepConfig& config) {
    if (!config.benchmarks.empty()) return config.benchmarks;
    std::vector<std::string> names;
    for (const auto& info : benchmarkList()) names.emplace_back(info.name);
    return names;
}

/// Legs runSweep(config) completes.
std::uint64_t legCount(const SweepConfig& config) {
    std::uint64_t perPoint = 0;
    for (const SchemeKind scheme : gridSchemes(config)) {
        perPoint += scheme == SchemeKind::Robust8T ? std::min(1u, config.trials) : config.trials;
    }
    return gridBenchmarks(config).size() * gridPoints(config).size() * perPoint;
}

/// Host seconds of what runSweep does before its first leg can run: per
/// benchmark, buildBenchmark + applyBbrTransforms + recordReplaySource for
/// each layout. Timed on one thread: the sum shows every piece of work
/// added to set-up, where runSweep's parallel preparation would hide work
/// added to the shorter benchmarks, and it is steadier on a shared host.
double timeSweepSetup(const SweepConfig& config) {
    const std::vector<SchemeKind> schemes = gridSchemes(config);
    const bool anyBbr = std::any_of(schemes.begin(), schemes.end(), schemeNeedsBbrLinking);
    const auto start = Clock::now();
    for (const std::string& benchmark : gridBenchmarks(config)) {
        const Module module = buildBenchmark(benchmark, config.scale);
        Module bbrModule = module;
        applyBbrTransforms(bbrModule, config.systemTemplate.maxBlockWords);
        SystemConfig ref = config.systemTemplate;
        ref.maxInstructions = config.maxInstructions;
        ref.scheme = SchemeKind::Conventional760;
        ref.op = DvfsTable::vccminBaseline();
        SystemResult ignored;
        const auto plain = recordReplaySource(module, ref, config.traceByteCap, ignored);
        if (plain == nullptr) throw std::runtime_error("trace cap exceeded in set-up");
        if (anyBbr) {
            const auto bbr = recordReplaySource(bbrModule, ref, config.traceByteCap, ignored);
            if (bbr == nullptr) throw std::runtime_error("trace cap exceeded in set-up");
        }
    }
    return secondsSince(start);
}

/// |simulated FFW+BBR EPI reduction at 400 mV vs Conventional-760 - 64%|, in
/// percentage points.
double paperEpiGapPp(const SweepResult& result) {
    const SweepCell& cell = result.cell(SchemeKind::FfwBbr, Voltage::fromMillivolts(400));
    const double reductionPct = (1.0 - cell.normEpi.mean()) * 100.0;
    return std::fabs(reductionPct - 64.0);
}

/// The SweepConfig a server builds for `job` (the server's own job parsing
/// is private to it).
SweepConfig configForJob(const serve::JobRequest& job) {
    SweepConfig config;
    config.trials = job.trials;
    config.scale = parseScale(job.scale);
    config.maxInstructions = job.maxInstructions;
    config.threads = job.threads;
    config.baseSeed = job.seed;
    config.benchmarks = splitCsv(job.benchmarks);
    for (const std::string& name : splitCsv(job.schemes)) {
        config.schemes.push_back(parseScheme(name));
    }
    for (const std::string& mv : splitCsv(job.mv)) {
        config.points.push_back(DvfsTable::at(Voltage::fromMillivolts(std::stod(mv))));
    }
    return config;
}

std::vector<double> repeatServeSetup(unsigned threads) {
    std::vector<double> seconds;
    const auto start = Clock::now();
    while (seconds.size() < static_cast<std::size_t>(kMaxSetupReps) &&
           (seconds.size() < static_cast<std::size_t>(kMinSetupReps) ||
            secondsSince(start) < kMinSetupSeconds)) {
        const auto t0 = Clock::now();
        const ServeClient probe(threads);
        seconds.push_back(secondsSince(t0)); // before the probe's shutdown
    }
    return seconds;
}

/// Pinned-digest check; only meaningful at workload seed 0.
void checkPinnedDigest(const Options& options, const std::string& json, Report& report) {
    if (options.seed != 0) return;
    const std::string actual = digestToHex(Sha256::digest(json));
    const std::string& pinned = pinnedDigests().at(options.workload);
    report.check("pinned_digest", actual == pinned, "sha256 " + actual);
}

/// Negative control: a sweep whose sampled fault rate is doubled must fail
/// the analytic cross-check, or the check could not catch a corrupt
/// fault-map generator.
void checkCorruptMapgenControl(const Options& options, Report& report) {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(Voltage::fromMillivolts(560)),
                     DvfsTable::at(Voltage::fromMillivolts(400))};
    config.scale = WorkloadScale::Tiny;
    config.trials = 16;
    config.threads = workloadThreads();
    config.baseSeed = sweepSeed(options.seed) ^ 0x5A5A5A5Aull;
    config.systemTemplate.faultRateScale = 2.0;
    const analysis::CrosscheckReport corrupt = analyticCrosscheck(runSweep(config), config);
    char detail[64];
    std::snprintf(detail, sizeof detail, "max z %.2f", corrupt.maxZ());
    report.check("corrupt_mapgen_control_fires", !corrupt.passed(), detail);
}

/// Re-run one seed-chosen (benchmark, scheme, point) cell execution-driven
/// and compare it byte for byte with the replayed sweep's cell.
void checkReplayCell(const Options& options, const SweepConfig& config,
                     const SweepResult& replayed, Report& report) {
    Rng rng(sweepSeed(options.seed) ^ 0xCE11ull);
    const std::vector<std::string> benchmarks = gridBenchmarks(config);
    const std::vector<SchemeKind> schemes = gridSchemes(config);
    const std::vector<OperatingPoint> points = gridPoints(config);
    const std::string benchmark = benchmarks[rng() % benchmarks.size()];
    const SchemeKind scheme = schemes[rng() % schemes.size()];
    const OperatingPoint point = points[rng() % points.size()];

    SweepConfig cell = config;
    cell.benchmarks = {benchmark};
    cell.schemes = {scheme};
    cell.points = {point};
    cell.useReplay = false;
    const SweepResult executed = runSweep(cell);

    const auto key = std::make_tuple(benchmark, scheme, millivolts(point));
    const auto cellJson = [&key](const SweepResult& result) {
        const auto it = result.perBenchmark.find(key);
        if (it == result.perBenchmark.end()) return std::string("<missing>");
        JsonWriter json;
        writeJson(json, it->second);
        return json.str();
    };
    const std::string label = benchmark + "/" + std::string(schemeName(scheme)) + "/" +
                              std::to_string(millivolts(point)) + "mV";
    report.check("replay_cell_matches_execution", cellJson(replayed) == cellJson(executed),
                 label);
}

} // namespace

bool isSweepWorkload(const std::string& workload) {
    return workload == "sweep_small" || workload == "ffwbbr_deep";
}

SweepConfig sweepConfigFor(const std::string& workload, std::uint64_t seed) {
    SweepConfig config;
    config.threads = workloadThreads();
    config.baseSeed = sweepSeed(seed);
    if (workload == "sweep_small") {
        config.scale = WorkloadScale::Small;
        config.trials = 8;
    } else if (workload == "ffwbbr_deep") {
        config.schemes = {SchemeKind::FfwBbr};
        config.points = {DvfsTable::at(Voltage::fromMillivolts(400)),
                         DvfsTable::at(Voltage::fromMillivolts(440))};
        config.scale = WorkloadScale::Tiny;
        config.trials = 512;
    } else {
        throw std::invalid_argument("not a sweep workload: " + workload);
    }
    return config;
}

std::string canonicalJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "perfbench";
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = scaleName(config.scale);
    meta.benchmarks = gridBenchmarks(config);
    return sweepResultToJson(result, meta);
}

void runSweepWorkload(const Options& options, Report& report) {
    const SweepConfig config = sweepConfigFor(options.workload, options.seed);
    const std::uint64_t legs = legCount(config);

    // Timed phase: whole sweeps until the budget is spent, each followed by
    // set-up repetitions, so the set-up samples span the run's host state.
    std::vector<double> setup;
    std::vector<double> legsPerSec;
    std::vector<double> cpuMsPerLeg;
    SweepResult first;
    std::string firstJson;
    bool deterministic = true;
    const auto start = Clock::now();
    do {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        SweepResult result = runSweep(config);
        const double wall = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        legsPerSec.push_back(static_cast<double>(legs) / wall);
        cpuMsPerLeg.push_back(cpu * 1e3 / static_cast<double>(legs));
        std::string json = canonicalJson(result, config);
        if (firstJson.empty()) {
            first = std::move(result);
            firstJson = std::move(json);
        } else {
            deterministic = deterministic && json == firstJson;
        }
        for (int rep = 0; rep < kSetupRepsPerSweep; ++rep) setup.push_back(timeSweepSetup(config));
    } while (secondsSince(start) < options.seconds);

    report.samples("setup_s", setup, "s");
    report.samples("legs_per_s", legsPerSec, "1/s");
    report.samples("cpu_ms_per_leg", cpuMsPerLeg, "ms");
    report.scalar("legs_per_sweep", static_cast<double>(legs), "count");
    report.scalar("paper_epi_gap_pp", paperEpiGapPp(first), "pp");
    report.operations(legsPerSec.size(), 0);

    report.check("repeat_sweeps_identical", deterministic,
                 std::to_string(legsPerSec.size()) + " sweeps");
    const analysis::CrosscheckReport analytic = analyticCrosscheck(first, config);
    char detail[64];
    std::snprintf(detail, sizeof detail, "max z %.2f", analytic.maxZ());
    report.check("analytic_crosscheck", analytic.passed(), detail);
    checkReplayCell(options, config, first, report);
    checkPinnedDigest(options, firstJson, report);
    checkCorruptMapgenControl(options, report);
    report.scalar("peak_rss_mb", peakRssMb(), "MB");
}

// --- serve_mix ---

serve::JobRequest primeJob(std::uint64_t seed, unsigned threads) {
    serve::JobRequest job;
    job.op = "sweep";
    job.id = "hit";
    job.scale = "tiny";
    job.trials = 8;
    job.threads = threads;
    job.seed = sweepSeed(seed);
    return job;
}

serve::JobRequest missJob(std::uint64_t seed, unsigned threads, std::uint64_t index) {
    serve::JobRequest job;
    job.op = "sweep";
    job.id = "miss";
    job.benchmarks = "crc32,qsort";
    job.schemes = "simple-wdis,fba+,ffw+bbr";
    job.mv = "400";
    job.scale = "tiny";
    job.trials = 4;
    job.threads = threads;
    // A fresh base seed per job: every chip, so every leg key, is new. Chip
    // seeds mix the trial into the low bits, so jobs differ above them.
    job.seed = sweepSeed(seed) + ((index + 1) << 20);
    return job;
}


std::string directDocument(const serve::JobRequest& job, SweepResult* resultOut) {
    const SweepConfig config = configForJob(job);
    SweepResult result = runSweep(config);
    SweepExportMeta meta;
    meta.version = std::string(buildVersion());
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = scaleName(config.scale);
    meta.benchmarks = gridBenchmarks(config);
    std::string document = sweepResultToJson(result, meta);
    if (resultOut != nullptr) *resultOut = std::move(result);
    return document;
}

ServeClient::ServeClient(unsigned threads) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = threads;
    server_ = std::make_unique<serve::Server>(options);
    serverThread_ = std::thread([this] {
        try {
            server_->run();
        } catch (...) {
            serverError_ = std::current_exception();
        }
    });
    try {
        socket_ = net::tcpConnect("127.0.0.1", server_->port(), std::chrono::seconds(60));
        socket_.setRecvTimeout(std::chrono::seconds(60));
        reader_.emplace(socket_, serve::kMaxResponseLineBytes);
        std::string line;
        if (!socket_.sendAll("{\"op\":\"ping\"}\n") ||
            reader_->next(line) != serve::LineReader::Status::Line ||
            parseJson(line).stringOr("ev", "") != "pong") {
            throw std::runtime_error("serve: no pong");
        }
    } catch (...) {
        server_->requestStop();
        serverThread_.join();
        throw;
    }
}

ServeClient::~ServeClient() {
    socket_.close();
    server_->requestStop();
    serverThread_.join();
    if (serverError_) {
        try {
            std::rethrow_exception(serverError_);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "vcbench: server stopped with: %s\n", e.what());
        }
    }
}

ServeClient::Reply ServeClient::submit(const serve::JobRequest& job) {
    Reply reply;
    const auto start = Clock::now();
    if (!socket_.sendAll(serve::jobToJson(job) + "\n")) {
        reply.error = "send failed";
        return reply;
    }
    std::string line;
    while (true) {
        const serve::LineReader::Status status = reader_->next(line);
        if (status == serve::LineReader::Status::Timeout) {
            reply.error = "timeout";
            return reply;
        }
        if (status != serve::LineReader::Status::Line) {
            reply.error = "connection lost";
            return reply;
        }
        const JsonValue event = parseJson(line);
        const std::string kind = event.stringOr("ev", "");
        if (kind == "error") {
            reply.error = event.stringOr("message", "error event");
            return reply;
        }
        if (kind != "result") continue;
        if (reader_->next(reply.document) != serve::LineReader::Status::Line) {
            reply.error = "document missing";
            return reply;
        }
        reply.latencyMs = secondsSince(start) * 1e3;
        const JsonValue* ok = event.find("ok");
        const auto bytes = static_cast<std::size_t>(event.numberOr("bytes", -1.0));
        reply.ok = (ok == nullptr || ok->asBool()) && bytes == reply.document.size();
        if (!reply.ok) reply.error = "bad result framing";
        reply.serverElapsedMs = event.numberOr("elapsedSeconds", 0.0) * 1e3;
        reply.legs = static_cast<std::uint64_t>(event.numberOr("legs", 0.0));
        reply.storeHits = static_cast<std::uint64_t>(event.numberOr("storeHits", 0.0));
        reply.storeMisses = static_cast<std::uint64_t>(event.numberOr("storeMisses", 0.0));
        return reply;
    }
}

void runServeWorkload(const Options& options, Report& report) {
    const unsigned threads = workloadThreads();
    const std::vector<double> setup = repeatServeSetup(threads);

    ServeClient client(threads);
    const serve::JobRequest prime = primeJob(options.seed, threads);
    const ServeClient::Reply primed = client.submit(prime);
    if (!primed.ok) throw std::runtime_error("serve: priming job failed: " + primed.error);

    // Timed phase: closed loop, hit and miss jobs alternating.
    std::vector<double> hitMs;
    std::vector<double> missMs;
    std::vector<std::pair<std::uint64_t, std::string>> sampledMisses;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t legs = 0;
    std::uint64_t hitDocMismatches = 0;
    std::uint64_t storeKindMismatches = 0;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    for (std::uint64_t i = 0; failed < kMaxServeFailures &&
                              (secondsSince(start) < options.seconds ||
                               hitMs.size() < kMinServeJobsPerKind ||
                               missMs.size() < kMinServeJobsPerKind);
         ++i) {
        const ServeClient::Reply hit = client.submit(prime);
        const ServeClient::Reply miss = client.submit(missJob(options.seed, threads, i));
        attempted += 2;
        for (const ServeClient::Reply* reply : {&hit, &miss}) {
            if (!reply->ok) {
                ++failed;
                std::fprintf(stderr, "vcbench: serve job failed: %s\n", reply->error.c_str());
            }
            legs += reply->legs;
        }
        if (hit.ok) {
            hitMs.push_back(hit.latencyMs);
            if (hit.document != primed.document) ++hitDocMismatches;
            if (hit.storeMisses != 0) ++storeKindMismatches;
        }
        if (miss.ok) {
            missMs.push_back(miss.latencyMs);
            if (miss.storeHits != 0) ++storeKindMismatches;
            if (i % kMissCheckStride == 0) sampledMisses.emplace_back(i, miss.document);
        }
    }
    const double wall = secondsSince(start);
    const double cpu = processCpuSeconds() - cpu0;

    report.samples("setup_s", setup, "s");
    report.samples("hit_job", hitMs, "ms", true);
    report.samples("miss_job", missMs, "ms", true);
    report.scalar("legs_per_s", static_cast<double>(legs) / wall, "1/s");
    report.scalar("cpu_ms_per_leg",
                  cpu * 1e3 / static_cast<double>(std::max<std::uint64_t>(legs, 1)), "ms");
    report.operations(attempted, failed);

    // Output checks against direct runSweep calls.
    SweepResult reference;
    const std::string referenceDoc = directDocument(prime, &reference);
    report.check("prime_document_matches_direct", primed.document == referenceDoc);
    report.check("hit_documents_match_prime", hitDocMismatches == 0,
                 std::to_string(hitDocMismatches) + " of " + std::to_string(hitMs.size()) +
                     " differ");
    report.check("hit_all_reads_miss_all_writes", storeKindMismatches == 0,
                 std::to_string(storeKindMismatches) + " jobs off their kind");
    std::uint64_t missMismatches = 0;
    for (const auto& [index, document] : sampledMisses) {
        if (document != directDocument(missJob(options.seed, threads, index))) ++missMismatches;
    }
    report.check("miss_documents_match_direct", missMismatches == 0,
                 std::to_string(missMismatches) + " of " + std::to_string(sampledMisses.size()) +
                     " sampled differ");
    checkPinnedDigest(options, canonicalJson(reference, configForJob(prime)), report);
    checkCorruptMapgenControl(options, report);
    report.scalar("paper_epi_gap_pp", paperEpiGapPp(reference), "pp");
    report.scalar("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace vcbench
