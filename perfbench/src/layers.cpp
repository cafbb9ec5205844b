// The traced run: per-layer metrics for one workload.
//
// It runs the workload's unit of work (one sweep, or one short serve mix)
// twice, untraced and then traced — the library's obs::Profiler phase spans
// on, plus this file's own spans around each call — and reports the
// traced/untraced wall-time difference as its overhead. Then it times calls
// into each layer's public entry points on the workload's inputs. Every call
// is one span (name, start, end, parent, workload) in an in-memory SpanLog
// written out at exit; a fine-grained entry point (one cache access, one
// store lookup) is one span over a stream of calls, with the call count.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "analysis/verify.h"
#include "common/hash.h"
#include "common/rng.h"
#include "compiler/passes.h"
#include "core/replay.h"
#include "core/report.h"
#include "cpu/branch_predictor.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/store.h"
#include "workload/workload.h"
#include "workloads.h"

namespace vcbench {

using namespace voltcache;

namespace {

/// End-to-end metric and workload each per-layer metric should move.
const char* const kSetupMoves = "setup_s on sweep_small and ffwbbr_deep";
const char* const kSmallRate = "legs_per_s on sweep_small";
const char* const kDeepRate = "legs_per_s on ffwbbr_deep";
const char* const kServeLatency = "hit_job_p50_ms and miss_job_p50_ms on serve_mix";

/// Benchmarks the replay / scheme / predictor probes stream: one
/// pointer-chasing and one streaming-with-reuse access profile.
const char* const kProbeBenchmarks[] = {"mcf_r", "qsort"};
constexpr std::uint32_t kProbeLanes = 32;
constexpr std::size_t kMaxCapturedEvents = 4u << 20;
constexpr std::uint64_t kServeProbePairs = 20;

OperatingPoint deepPoint() { return DvfsTable::at(Voltage::fromMillivolts(400)); }

double perCall(std::uint64_t busyNs, std::uint64_t calls, double unitNs) {
    return calls == 0 ? 0.0 : static_cast<double>(busyNs) / unitNs / static_cast<double>(calls);
}

/// Summed counter (or histogram count) of a metrics family, all label sets.
std::uint64_t registryCount(std::string_view name) {
    std::uint64_t total = 0;
    for (const obs::MetricSnapshot& m : obs::MetricsRegistry::global().snapshot()) {
        if (m.name == name) total += m.count;
    }
    return total;
}

/// One pass of the workload's unit of work.
struct Pass {
    double wallS = 0.0;
    double cpuS = 0.0;
    std::string output;   ///< canonical JSON (sweeps) / prime document (serve)
    SweepResult result;   ///< the sweep's result (serve: the primed grid's)
    std::vector<double> overheadMs; ///< serve: client latency - server elapsed
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t failures = 0;
    std::string firstError;

    void fail(const std::string& what) {
        if (failures++ == 0) firstError = what;
    }
};

Pass runSweepPass(const SweepConfig& config, SpanLog* log) {
    Pass pass;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    {
        const SpanLog::Scope span(log, "core.runSweep");
        pass.result = runSweep(config);
    }
    pass.wallS = secondsSince(t0);
    pass.cpuS = processCpuSeconds() - cpu0;
    pass.output = canonicalJson(pass.result, config);
    return pass;
}

/// A short serve mix: prime, then `pairs` hit/miss job pairs.
Pass runServePass(std::uint64_t seed, std::uint64_t pairs, SpanLog* log) {
    const unsigned threads = workloadThreads();
    ServeClient client(threads);
    const std::uint64_t hits0 = registryCount("serve.store.hits");
    const std::uint64_t misses0 = registryCount("serve.store.misses");
    Pass pass;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const auto submit = [&](const serve::JobRequest& job, const char* spanName) {
        const SpanLog::Scope span(log, spanName);
        ServeClient::Reply reply = client.submit(job);
        if (!reply.ok) pass.fail(std::string(spanName) + ": " + reply.error);
        pass.overheadMs.push_back(reply.latencyMs - reply.serverElapsedMs);
        return reply;
    };
    const serve::JobRequest prime = primeJob(seed, threads);
    pass.output = submit(prime, "serve.job.prime").document;
    for (std::uint64_t i = 0; i < pairs; ++i) {
        if (submit(prime, "serve.job.hit").document != pass.output) {
            pass.fail("hit document differs from the primed one");
        }
        (void)submit(missJob(seed, threads, i), "serve.job.miss");
    }
    pass.wallS = secondsSince(t0);
    pass.cpuS = processCpuSeconds() - cpu0;
    pass.storeHits = registryCount("serve.store.hits") - hits0;
    pass.storeMisses = registryCount("serve.store.misses") - misses0;
    if (directDocument(prime, &pass.result) != pass.output) {
        pass.fail("primed document differs from a direct runSweep");
    }
    return pass;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Program-order capture of one execution-driven leg: I-fetch and D-access
/// addresses, and every resolved control-flow instruction.
class StreamCapture : public TraceObserver {
public:
    struct Access {
        std::uint32_t addr;
        bool write;
    };
    struct Branch {
        std::uint32_t pc;
        std::uint32_t nextPc;
        Opcode op;
        bool links;
        bool taken;
    };

    void onInstruction(std::uint32_t pc, const Instruction&) override {
        if (fetches.size() < kMaxCapturedEvents) fetches.push_back(pc);
    }
    void onDataAccess(std::uint32_t addr, bool isWrite) override {
        if (data.size() < kMaxCapturedEvents) data.push_back({addr, isWrite});
    }
    void onControlFlow(std::uint32_t pc, const Instruction& inst, bool taken,
                       std::uint32_t nextPc, bool) override {
        if (branches.size() < kMaxCapturedEvents) {
            branches.push_back({pc, nextPc, inst.op, inst.rd != kZeroRegister, taken});
        }
    }

    std::vector<std::uint32_t> fetches;
    std::vector<Access> data;
    std::vector<Branch> branches;
};

SystemConfig legConfig(SchemeKind scheme, std::uint64_t seed) {
    SystemConfig config;
    config.scheme = scheme;
    config.op = deepPoint();
    config.faultMapSeed = seed;
    return config;
}

/// What the probes share per benchmark: modules and the recorded traces.
struct ProbeInputs {
    std::string name;
    Module module;
    Module bbrModule;
    TraceCache traces;
};

class LayerProbes {
public:
    LayerProbes(const Options& options, SpanLog& log, Report& report)
        : log_(log), report_(report), seed_(sweepSeed(options.seed)) {
        scale_ = isSweepWorkload(options.workload)
                     ? sweepConfigFor(options.workload, options.seed).scale
                     : WorkloadScale::Tiny;
    }

    void run() {
        setupLayers();
        for (ProbeInputs& in : probes_) {
            replayLayers(in);
            schemeLayers(in);
        }
        replayMetrics();
        schemeMetrics();
        hashAndStoreLayers();
    }

private:
    void layer(const char* metric, const char* span, double unit, const char* unitName,
               const char* moves) {
        report_.layer(metric, perCall(log_.busyNs(span), log_.calls(span), unit), unitName,
                      log_.calls(span), log_.busyNs(span), moves);
    }

    /// buildBenchmark / applyBbrTransforms / recordReplaySource /
    /// simulateSystem / moduleDigest over every benchmark of the suite.
    void setupLayers() {
        std::uint64_t execInstructions = 0;
        for (const auto& info : benchmarkList()) {
            ProbeInputs in;
            in.name = std::string(info.name);
            {
                const SpanLog::Scope span(&log_, "workload.buildBenchmark");
                in.module = buildBenchmark(info.name, scale_);
            }
            in.bbrModule = in.module;
            {
                const SpanLog::Scope span(&log_, "compiler.applyBbrTransforms");
                applyBbrTransforms(in.bbrModule);
            }
            SystemConfig ref;
            ref.scheme = SchemeKind::Conventional760;
            ref.op = DvfsTable::vccminBaseline();
            SystemResult recorded;
            {
                const SpanLog::Scope span(&log_, "cpu.recordReplaySource");
                in.traces.plain = recordReplaySource(in.module, ref, 256ull << 20, recorded);
            }
            {
                const SpanLog::Scope span(&log_, "cpu.recordReplaySource");
                in.traces.bbr = recordReplaySource(in.bbrModule, ref, 256ull << 20, recorded);
            }
            {
                const SpanLog::Scope span(&log_, "cpu.simulateSystem");
                execInstructions += simulateSystem(in.module, nullptr, ref).run.instructions;
            }
            {
                const SpanLog::Scope span(&log_, "common.moduleDigest");
                moduleDigests_.push_back(moduleDigest(in.module));
            }
            if (in.traces.plain == nullptr || in.traces.bbr == nullptr) {
                throw std::runtime_error("trace cap exceeded for " + in.name);
            }
            if (std::find(std::begin(kProbeBenchmarks), std::end(kProbeBenchmarks), in.name) !=
                std::end(kProbeBenchmarks)) {
                probes_.push_back(std::move(in));
            }
        }
        layer("workload.build_ms", "workload.buildBenchmark", 1e6, "ms",
              "setup_s on sweep_small and ffwbbr_deep; hit_job_p50_ms on serve_mix");
        layer("compiler.bbr_transform_ms", "compiler.applyBbrTransforms", 1e6, "ms",
              kSetupMoves);
        layer("cpu.record_ms", "cpu.recordReplaySource", 1e6, "ms", kSetupMoves);
        const std::uint64_t execNs = log_.busyNs("cpu.simulateSystem");
        report_.layer("cpu.exec_ns_per_instr",
                      perCall(execNs, std::max<std::uint64_t>(execInstructions, 1), 1.0), "ns",
                      execInstructions, execNs, kSetupMoves);
        layer("common.hash.module_digest_us", "common.moduleDigest", 1e3, "us", kServeLatency);
    }

    /// replayBatch (plain 32 lanes, BBR 32 lanes, one lane), fault-map
    /// generation, the verified BBR link, address translation, the branch
    /// predictor and per-leg metric publication.
    void replayLayers(ProbeInputs& in) {
        const std::uint64_t instructions = in.traces.plain->trace.instructions();
        std::vector<std::uint64_t> seeds(kProbeLanes);
        for (std::uint32_t t = 0; t < kProbeLanes; ++t) seeds[t] = seed_ + 7919u * t;

        std::vector<detail::LegFaultMaps> chips;
        {
            const SpanLog::Scope span(&log_, "faults.generateChipFaultMapsBatch", kProbeLanes);
            chips = detail::generateChipFaultMapsBatch(legConfig(SchemeKind::FfwBbr, 0), seeds);
        }

        // Plain layout: the four plain-layout defect-tolerant schemes x 8 chips.
        const SchemeKind plainSchemes[] = {SchemeKind::SimpleWordDisable,
                                           SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
                                           SchemeKind::IdcPlus};
        std::vector<BatchLane> lanes(kProbeLanes);
        for (std::uint32_t i = 0; i < kProbeLanes; ++i) {
            lanes[i].config = legConfig(plainSchemes[i % 4], seeds[i / 4]);
            lanes[i].chipMaps = &chips[i / 4];
        }
        {
            const SpanLog::Scope span(&log_, "core.replayBatch.plain");
            replayBatch(nullptr, in.traces, lanes);
        }
        plainLaneInstr_ += kProbeLanes * instructions;

        for (std::uint32_t i = 0; i < 4; ++i) {
            std::vector<BatchLane> one(1);
            one[0].config = legConfig(plainSchemes[i], seeds[i]);
            one[0].chipMaps = &chips[i];
            const SpanLog::Scope span(&log_, "core.replayBatch.lane1");
            replayBatch(nullptr, in.traces, one);
        }
        lane1Instr_ += 4 * instructions;

        // BBR layout: FFW+BBR on 32 chips (a lane whose link fails sits out).
        std::vector<BatchLane> bbrLanes(kProbeLanes);
        for (std::uint32_t i = 0; i < kProbeLanes; ++i) {
            bbrLanes[i].config = legConfig(SchemeKind::FfwBbr, seeds[i]);
            bbrLanes[i].chipMaps = &chips[i];
        }
        {
            const SpanLog::Scope span(&log_, "core.replayBatch.bbr");
            replayBatch(&in.bbrModule, in.traces, bbrLanes);
        }
        for (const BatchLane& lane : bbrLanes) {
            if (!lane.result.linkFailed) bbrLaneInstr_ += in.traces.bbr->trace.instructions();
        }

        for (const detail::LegFaultMaps& chip : chips) {
            LinkOptions options;
            options.bbrPlacement = true;
            options.icacheFaultMap = &chip.icache;
            std::optional<LinkOutput> linked;
            {
                const SpanLog::Scope span(&log_, "linker.linkVerified");
                try {
                    linked = analysis::linkVerified(in.bbrModule, options);
                } catch (const LinkError&) {
                    // Simulated yield loss, counted by linker.place_ok_frac.
                }
            }
            ++linkAttempts_;
            if (!linked.has_value()) continue;
            ++linkOk_;
            scanRestarts_ += linked->stats.scanRestarts;
            const SpanLog::Scope span(&log_, "core.buildAddressTranslation");
            keep(buildAddressTranslation(in.traces.bbr->link.image, linked->image).size());
        }

        constexpr std::uint64_t kPublishes = 2000;
        {
            const SpanLog::Scope span(&log_, "obs.publishLegMetrics", kPublishes);
            for (std::uint64_t i = 0; i < kPublishes; ++i) {
                const BatchLane& lane = bbrLanes[i % bbrLanes.size()];
                detail::publishLegMetrics(lane.config, lane.result);
            }
        }
    }

    void replayMetrics() {
        const auto perInstr = [this](const char* metric, const char* span, std::uint64_t instr,
                                     const char* moves) {
            const std::uint64_t busy = log_.busyNs(span);
            report_.layer(metric, perCall(busy, std::max<std::uint64_t>(instr, 1), 1.0), "ns",
                          instr, busy, moves);
        };
        perInstr("core.replay.plain_ns_per_lane_instr", "core.replayBatch.plain", plainLaneInstr_,
                 kSmallRate);
        perInstr("core.replay.bbr_ns_per_lane_instr", "core.replayBatch.bbr", bbrLaneInstr_,
                 kDeepRate);
        perInstr("core.replay.lane1_ns_per_instr", "core.replayBatch.lane1", lane1Instr_,
                 "miss_job_p50_ms on serve_mix");
        layer("core.replay.translate_us", "core.buildAddressTranslation", 1e3, "us", kDeepRate);
        layer("faults.mapgen_us_per_chip", "faults.generateChipFaultMapsBatch", 1e3, "us",
              kDeepRate);
        layer("linker.bbr_link_us", "linker.linkVerified", 1e3, "us", kDeepRate);
        report_.layer("linker.place_ok_frac",
                      static_cast<double>(linkOk_) / static_cast<double>(linkAttempts_), "frac",
                      linkAttempts_, log_.busyNs("linker.linkVerified"), kDeepRate);
        report_.layer("linker.scan_restarts",
                      static_cast<double>(scanRestarts_) /
                          static_cast<double>(std::max<std::uint64_t>(linkOk_, 1)),
                      "count", linkOk_, log_.busyNs("linker.linkVerified"), kDeepRate);
        layer("obs.publish_us_per_leg", "obs.publishLegMetrics", 1e3, "us",
              "legs_per_s on sweep_small and ffwbbr_deep");
        const std::uint64_t branches = log_.calls("cpu.BranchPredictor");
        const std::uint64_t predictorNs = log_.busyNs("cpu.BranchPredictor");
        report_.layer("cpu.predictor_ns_per_branch", perCall(predictorNs, branches, 1.0), "ns",
                      branches, predictorNs, kDeepRate);
    }

    /// Stream captured address streams through each scheme's L1 pair at a
    /// 400 mV chip, the L1 miss stream through a fresh L2, and the captured
    /// branches through a fresh predictor.
    void schemeLayers(ProbeInputs& in) {
        // Plain-layout stream from the reference run; BBR-layout stream from
        // an FFW+BBR leg on a chip the binary links on.
        StreamCapture plain;
        {
            SystemConfig config;
            config.scheme = SchemeKind::Conventional760;
            config.op = DvfsTable::vccminBaseline();
            config.observers.push_back(&plain);
            (void)simulateSystem(in.module, nullptr, config);
        }
        std::unique_ptr<StreamCapture> bbrCapture;
        std::uint64_t bbrSeed = seed_;
        for (;; ++bbrSeed) {
            bbrCapture = std::make_unique<StreamCapture>();
            SystemConfig config = legConfig(SchemeKind::FfwBbr, bbrSeed);
            config.observers.push_back(bbrCapture.get());
            if (!simulateSystem(in.module, &in.bbrModule, config).linkFailed) break;
            if (bbrSeed > seed_ + 64) throw std::runtime_error("no linkable chip for " + in.name);
        }
        const StreamCapture& bbr = *bbrCapture;

        for (const auto& [key, kind] : schemeKeys()) {
            const bool isBbr = kind == SchemeKind::FfwBbr;
            const StreamCapture& stream = isBbr ? bbr : plain;
            const SystemConfig config = legConfig(kind, isBbr ? bbrSeed : seed_);
            const detail::LegFaultMaps maps = detail::generateLegFaultMaps(config);
            L2Cache::Config l2Config;
            l2Config.dramLatencyCycles =
                dramLatencyCycles(config.dramLatencyNs, config.op.frequency);
            L2Cache l2(l2Config);
            const SchemePair pair =
                makeSchemes(kind, config.l1Org, maps.dcache, maps.icache, l2);
            SchemeTotals& totals = schemeTotals_[key];
            withConcreteSchemes(kind, pair, [&](auto& icache, auto& dcache) {
                std::uint64_t sink = 0;
                {
                    const SpanLog::Scope span(&log_, spanName(key, "data"), stream.data.size());
                    for (const StreamCapture::Access& a : stream.data) {
                        sink += (a.write ? dcache.write(a.addr) : dcache.read(a.addr))
                                    .latencyCycles;
                    }
                }
                {
                    const SpanLog::Scope span(&log_, spanName(key, "fetch"),
                                              stream.fetches.size());
                    for (const std::uint32_t pc : stream.fetches) {
                        sink += icache.fetch(pc).latencyCycles;
                    }
                }
                sink_ += sink;
                totals.dataAccesses += dcache.stats().accesses;
                totals.dataHits += dcache.stats().hits;
            });
        }

        // L2 on the L1 miss stream of simple word-disable at 400 mV.
        {
            const SystemConfig config = legConfig(SchemeKind::SimpleWordDisable, seed_);
            const detail::LegFaultMaps maps = detail::generateLegFaultMaps(config);
            L2Cache feeder;
            const SchemePair pair =
                makeSchemes(config.scheme, config.l1Org, maps.dcache, maps.icache, feeder);
            std::vector<StreamCapture::Access> misses;
            for (const StreamCapture::Access& a : plain.data) {
                const AccessResult r = a.write ? pair.dcache->write(a.addr)
                                               : pair.dcache->read(a.addr);
                if (r.l2Reads > 0 || r.l2Writes > 0) misses.push_back(a);
            }
            for (const std::uint32_t pc : plain.fetches) {
                if (pair.icache->fetch(pc).l2Reads > 0) misses.push_back({pc, false});
            }
            L2Cache l2;
            {
                const SpanLog::Scope span(&log_, "cache.L2Cache.access", misses.size());
                for (const StreamCapture::Access& a : misses) {
                    sink_ += (a.write ? l2.write(a.addr) : l2.read(a.addr)).latencyCycles;
                }
            }
            l2Accesses_ += l2.stats().accesses();
            l2Misses_ += l2.stats().misses;
        }

        // The live predictor BBR legs run, on the BBR layout's branches.
        {
            BranchPredictor predictor;
            std::uint64_t correct = 0;
            const SpanLog::Scope span(&log_, "cpu.BranchPredictor", bbr.branches.size());
            for (const StreamCapture::Branch& b : bbr.branches) {
                if (b.op == Opcode::Jal) {
                    const auto p = predictor.predictJump(b.pc);
                    correct += predictor.resolve(p, b.pc, true, b.nextPc, false);
                    if (b.links) predictor.pushReturnAddress(b.pc + 4);
                } else if (b.op == Opcode::Jalr) {
                    const auto p = predictor.predictReturn(b.pc);
                    correct += predictor.resolve(p, b.pc, true, b.nextPc, true);
                    if (b.links) predictor.pushReturnAddress(b.pc + 4);
                } else {
                    const auto p = predictor.predictBranch(b.pc);
                    correct += predictor.resolve(p, b.pc, b.taken, b.nextPc, true);
                }
            }
            sink_ += correct;
        }
    }

    void schemeMetrics() {
        for (const auto& [key, kind] : schemeKeys()) {
            const char* moves = kind == SchemeKind::FfwBbr ? kDeepRate
                                : kind == SchemeKind::Conventional760
                                    ? kSetupMoves
                                    : "legs_per_s on sweep_small (no move on ffwbbr_deep)";
            const std::string prefix = "schemes." + key + ".";
            const std::string data = spanName(key, "data");
            const std::string fetch = spanName(key, "fetch");
            report_.layer(prefix + "dread_ns", perCall(log_.busyNs(data), log_.calls(data), 1.0),
                          "ns", log_.calls(data), log_.busyNs(data), moves);
            report_.layer(prefix + "ifetch_ns",
                          perCall(log_.busyNs(fetch), log_.calls(fetch), 1.0), "ns",
                          log_.calls(fetch), log_.busyNs(fetch), moves);
            const SchemeTotals& t = schemeTotals_[key];
            report_.layer(prefix + "dhit_frac",
                          static_cast<double>(t.dataHits) /
                              static_cast<double>(std::max<std::uint64_t>(t.dataAccesses, 1)),
                          "frac", t.dataAccesses, log_.busyNs(data), moves);
        }
        layer("cache.l2_ns_per_access", "cache.L2Cache.access", 1.0, "ns", kSmallRate);
        report_.layer("cache.l2_hit_frac",
                      1.0 - static_cast<double>(l2Misses_) /
                                static_cast<double>(std::max<std::uint64_t>(l2Accesses_, 1)),
                      "frac", l2Accesses_, log_.busyNs("cache.L2Cache.access"), kSmallRate);
    }

    /// legDigest, LegStore insert / lookup.
    void hashAndStoreLayers() {
        constexpr std::uint64_t kDigests = 20000;
        const SystemConfig systemTemplate;
        Digest256 sink{};
        {
            const SpanLog::Scope span(&log_, "common.legDigest", kDigests);
            for (std::uint64_t i = 0; i < kDigests; ++i) {
                const Digest256 key =
                    legDigest(moduleDigests_[i % moduleDigests_.size()], SchemeKind::FbaPlus,
                              deepPoint(), seed_ + i, systemTemplate);
                sink[i % sink.size()] ^= key[0];
            }
        }
        layer("common.hash.leg_digest_ns", "common.legDigest", 1.0, "ns", kServeLatency);

        constexpr std::uint64_t kKeys = 8192;
        std::vector<Digest256> keys(kKeys);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
            keys[i] = Sha256::digest(std::to_string(seed_ + i));
        }
        serve::LegStore store({.byteBudget = 64ull << 20, .directory = ""});
        LegResult value;
        value.normRuntime = 1.0;
        {
            const SpanLog::Scope span(&log_, "serve.LegStore.store", kKeys);
            for (const Digest256& key : keys) store.store(key, value);
        }
        std::uint64_t found = 0;
        {
            const SpanLog::Scope span(&log_, "serve.LegStore.lookup", kKeys);
            LegResult out;
            for (const Digest256& key : keys) found += store.lookup(key, out) ? 1 : 0;
        }
        if (found != kKeys) throw std::runtime_error("LegStore lost resident entries");
        layer("serve.store.lookup_ns", "serve.LegStore.lookup", 1.0, "ns", kServeLatency);
        layer("serve.store.insert_ns", "serve.LegStore.store", 1.0, "ns",
              "miss_job_p50_ms on serve_mix");
        keep(sink);
        keep(sink_);
    }

    struct SchemeTotals {
        std::uint64_t dataAccesses = 0;
        std::uint64_t dataHits = 0;
    };

    static const std::vector<std::pair<std::string, SchemeKind>>& schemeKeys() {
        static const std::vector<std::pair<std::string, SchemeKind>> keys = {
            {"conv", SchemeKind::Conventional760},
            {"simple_wdis", SchemeKind::SimpleWordDisable},
            {"wilkerson_plus", SchemeKind::WilkersonPlus},
            {"fba_plus", SchemeKind::FbaPlus},
            {"idc_plus", SchemeKind::IdcPlus},
            {"ffw_bbr", SchemeKind::FfwBbr},
        };
        return keys;
    }

    static std::string spanName(const std::string& key, const char* side) {
        return "schemes." + key + "." + side;
    }

    SpanLog& log_;
    Report& report_;
    std::uint64_t seed_;
    WorkloadScale scale_ = WorkloadScale::Tiny;
    std::vector<ProbeInputs> probes_;
    std::vector<Digest256> moduleDigests_;
    std::map<std::string, SchemeTotals> schemeTotals_;
    std::uint64_t plainLaneInstr_ = 0;
    std::uint64_t bbrLaneInstr_ = 0;
    std::uint64_t lane1Instr_ = 0;
    std::uint64_t linkAttempts_ = 0;
    std::uint64_t linkOk_ = 0;
    std::uint64_t scanRestarts_ = 0;
    std::uint64_t l2Accesses_ = 0;
    std::uint64_t l2Misses_ = 0;
    std::uint64_t sink_ = 0;
};

} // namespace

void runTraced(const Options& options, Report& report) {
    SpanLog log(options.workload);
    const bool sweep = isSweepWorkload(options.workload);
    const unsigned threads = workloadThreads();
    const auto runPass = [&](SpanLog* spans) {
        return sweep ? runSweepPass(sweepConfigFor(options.workload, options.seed), spans)
                     : runServePass(options.seed, kServeProbePairs, spans);
    };

    // The workload's unit of work, untraced and traced in ABBA order so a
    // steady drift in host speed cancels out of the overhead. Phase
    // self-times come from the first traced pass.
    const Pass untraced = runPass(nullptr);
    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    const Pass traced = runPass(&log);
    const std::vector<obs::SpanStat> phases = obs::Profiler::snapshot();
    const Pass tracedAgain = runPass(&log);
    obs::Profiler::setEnabled(false);
    const Pass untracedAgain = runPass(nullptr);
    std::string firstError;
    bool identical = true;
    for (const Pass* pass : {&untraced, &traced, &tracedAgain, &untracedAgain}) {
        if (firstError.empty()) firstError = pass->firstError;
        identical = identical && pass->output == untraced.output;
    }
    report.check("passes_ok", firstError.empty(), firstError);
    report.check("traced_output_identical", identical);

    const double tracedS = traced.wallS + tracedAgain.wallS;
    report.layer("bench.trace_overhead_frac",
                 tracedS / (untraced.wallS + untracedAgain.wallS) - 1.0, "frac", 2,
                 static_cast<std::uint64_t>(tracedS * 1e9),
                 "none: the traced run's wall time against the untraced run");
    report.layer("core.sweep.worker_util", traced.cpuS / (traced.wallS * threads), "frac",
                 threads, static_cast<std::uint64_t>(traced.wallS * 1e9), kSmallRate);
    for (const char* phase : {"context", "record", "execute", "mapgen", "link", "batch",
                              "reduce"}) {
        std::uint64_t selfNs = 0;
        std::uint64_t count = 0;
        for (const obs::SpanStat& stat : phases) {
            if (stat.name == phase) {
                selfNs = stat.selfNs;
                count = stat.count;
            }
        }
        report.layer(std::string("core.sweep.") + phase + "_self_ms",
                     static_cast<double>(selfNs) / 1e6, "ms", count, selfNs, kSmallRate);
    }

    constexpr int kJsonReps = 5;
    {
        const SpanLog::Scope span(&log, "core.sweepResultToJson", kJsonReps);
        for (int i = 0; i < kJsonReps; ++i) {
            keep(sweepResultToJson(traced.result, SweepExportMeta{}).size());
        }
    }
    report.layer("core.report.json_ms",
                 perCall(log.busyNs("core.sweepResultToJson"), kJsonReps, 1e6), "ms", kJsonReps,
                 log.busyNs("core.sweepResultToJson"), kServeLatency);

    // serve.*: a short serve mix with the profiler off.
    const Pass servePass = runServePass(options.seed, kServeProbePairs, &log);
    report.check("serve_probe_ok", servePass.failures == 0, servePass.firstError);
    report.layer("serve.overhead_ms", median(servePass.overheadMs), "ms",
                 servePass.overheadMs.size(), 0, kServeLatency);
    report.layer("serve.store.hit_frac",
                 static_cast<double>(servePass.storeHits) /
                     static_cast<double>(
                         std::max<std::uint64_t>(servePass.storeHits + servePass.storeMisses, 1)),
                 "frac", servePass.storeHits + servePass.storeMisses, 0,
                 "hit_job_p50_ms on serve_mix");

    LayerProbes(options, log, report).run();
    if (!options.spans.empty()) log.write(options.spans);
}

} // namespace vcbench
