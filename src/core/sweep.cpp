#include "core/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include <cstdio>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/replay.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace voltcache {

namespace {

int mv(Voltage v) { return static_cast<int>(std::lround(v.millivolts())); }

std::uint64_t steadyNowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Leg-granular progress ticks are throttled to at most one per this period
/// (~5 Hz), so a single-benchmark sweep still reports while it runs without
/// turning the progress lock into a hot-path bottleneck.
constexpr std::uint64_t kLegTickPeriodNs = 200'000'000;

/// Chip seed: identical for every scheme and benchmark so comparisons are
/// paired; distinct per (voltage, trial).
std::uint64_t chipSeed(std::uint64_t base, int voltageMv, std::uint32_t trial) {
    SplitMix64 mixer(base ^ (static_cast<std::uint64_t>(voltageMv) << 32) ^ trial);
    return mixer.next();
}

void accumulate(SweepCell& cell, const LegResult& metrics) {
    if (metrics.linkFailed) {
        ++cell.linkFailures;
        return;
    }
    ++cell.runs;
    cell.normRuntime.add(metrics.normRuntime);
    cell.l2PerKilo.add(metrics.l2PerKilo);
    cell.normEpi.add(metrics.normEpi);
    cell.busyFrac.add(metrics.busyFrac);
    cell.ifetchFrac.add(metrics.ifetchFrac);
    cell.dmemFrac.add(metrics.dmemFrac);
    cell.branchFrac.add(metrics.branchFrac);
}

/// Shared immutable per-benchmark artifacts, built once before any leg runs
/// (the old executor re-ran the reference and defect-free simulations inside
/// every benchmark closure).
struct BenchmarkContext {
    std::string name;
    Module module;
    Module bbrModule;
    Digest256 digest{};                   ///< moduleDigest, when a store probes
    SystemResult ref760;                  ///< conventional cache at Vccmin
    SystemResult bbrRef760;               ///< the BBR twin's recording run
    std::vector<SystemResult> defectFree; ///< one per operating point
    /// Recorded architectural traces (plain + BBR layout) every trial leg
    /// replays from; empty slots mean execution-driven fallback.
    TraceCache traces;
};

/// One unit of work: indices into (contexts, points, schemes) plus a trial.
struct Leg {
    std::uint32_t benchmark = 0;
    std::uint32_t point = 0;
    std::uint32_t scheme = 0;
    std::uint32_t trial = 0;
};

/// Lazily-generated fault maps for one operating point — every trial's chip
/// at once, drawn by the batched generator (generateChipFaultMapsBatch).
/// The chip seeds are scheme- and benchmark-independent, so every
/// defect-tolerant leg of a (point, trial) shares one draw instead of
/// regenerating ~8K-word maps per leg, and batching the point's trials
/// amortizes the failure-model evaluation and map allocation across them.
struct PointMapSlot {
    std::once_flag once;
    std::vector<detail::LegFaultMaps> maps; ///< indexed by trial
};

/// Run `job(0..jobCount)` on `threads` workers pulling indices off an atomic
/// queue (work-stealing by over-decomposition: every index is a steal).
void runIndexed(std::size_t jobCount, unsigned threads,
                const std::function<void(std::size_t)>& job) {
    if (jobCount == 0) return;
    if (threads <= 1) {
        for (std::size_t i = 0; i < jobCount; ++i) job(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            while (true) {
                const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
                if (index >= jobCount) return;
                job(index);
            }
        });
    }
    for (auto& worker : workers) worker.join();
}

void rethrowFirst(const std::vector<std::exception_ptr>& errors) {
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

/// How a leg got its result: simulated execution-driven, replayed from the
/// benchmark's recorded trace (in a TrialBatch), or served from the store.
enum class LegPath : std::uint8_t { Executed, Replayed, Cached };

/// Per-worker-thread (scheme, voltage) leg counters through the handle API:
/// the handles resolve to the calling thread's shard, so the hot loop never
/// touches the registry lock or another thread's cells.
class LegCounters {
public:
    LegCounters()
        : legs_(obs::MetricsRegistry::global().counter("sweep.legs")),
          byPath_{obs::MetricsRegistry::global().counter("sweep.legs_executed"),
                  obs::MetricsRegistry::global().counter("sweep.legs_replayed"),
                  obs::MetricsRegistry::global().counter("sweep.legs_cached")},
          batches_(obs::MetricsRegistry::global().counter("sweep.batches")),
          batchLanes_(obs::MetricsRegistry::global().counter("sweep.batch_lanes")) {}

    void legDone(LegPath path) {
        legs_.add();
        byPath_[static_cast<std::size_t>(path)].add();
    }

    void batchDone(std::uint64_t lanes) {
        batches_.add();
        batchLanes_.add(lanes);
    }

    void record(SchemeKind scheme, int voltageMv, bool linkFailed) {
        const auto key = std::make_pair(scheme, voltageMv);
        auto it = handles_.find(key);
        if (it == handles_.end()) {
            obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
            const obs::LabelList labels = {{"scheme", std::string(schemeName(scheme))},
                                           {"mv", std::to_string(voltageMv)}};
            it = handles_
                     .emplace(key, Handles{reg.counter("sweep.runs", labels),
                                           reg.counter("sweep.link_failures", labels)})
                     .first;
        }
        if (linkFailed) {
            it->second.linkFailures.add();
        } else {
            it->second.runs.add();
        }
    }

private:
    struct Handles {
        obs::Counter runs;
        obs::Counter linkFailures;
    };
    obs::Counter legs_;
    std::array<obs::Counter, 3> byPath_; ///< indexed by LegPath
    obs::Counter batches_;
    obs::Counter batchLanes_;
    std::map<std::pair<SchemeKind, int>, Handles> handles_;
};

} // namespace

namespace detail {

std::size_t replayUnitCap(std::uint32_t batchLanes, std::size_t replayableLegs,
                          unsigned workers) {
    constexpr std::size_t kDefaultBatchLanes = 32;
    const std::size_t cap = batchLanes == 0 ? kDefaultBatchLanes : batchLanes;
    const std::size_t units = 2 * static_cast<std::size_t>(std::max(workers, 1u));
    return std::clamp<std::size_t>((replayableLegs + units - 1) / units, 1, cap);
}

std::vector<std::size_t> chunkSizes(std::size_t lanes, std::size_t cap) {
    VC_EXPECTS(cap > 0);
    if (lanes == 0) return {};
    const std::size_t chunks = (lanes + cap - 1) / cap;
    std::vector<std::size_t> sizes(chunks, lanes / chunks);
    for (std::size_t i = 0; i < lanes % chunks; ++i) ++sizes[i];
    return sizes;
}

} // namespace detail

const SweepCell& SweepResult::cell(SchemeKind kind, Voltage v) const {
    const auto it = cells.find({kind, mv(v)});
    if (it == cells.end()) {
        throw std::out_of_range("SweepResult::cell: no data for this (scheme, voltage)");
    }
    return it->second;
}

std::vector<SchemeKind> paperSchemes() {
    return {SchemeKind::Robust8T,  SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus,
            SchemeKind::FbaPlus,   SchemeKind::IdcPlus,           SchemeKind::FfwBbr};
}

Digest256 moduleDigest(const Module& module) {
    HashWriter h;
    h.str("voltcache.module.v1");
    h.u64(module.functions.size());
    for (const Function& fn : module.functions) {
        h.str(fn.name);
        h.u64(fn.blocks.size());
        for (const BasicBlock& block : fn.blocks) {
            h.str(block.label);
            h.u64(block.insts.size());
            for (const Instruction& inst : block.insts) {
                h.u32(static_cast<std::uint32_t>(inst.op));
                h.u8(inst.rd);
                h.u8(inst.rs1);
                h.u8(inst.rs2);
                h.i32(inst.imm);
            }
            h.u64(block.relocs.size());
            for (const Relocation& reloc : block.relocs) {
                h.u32(reloc.instIndex);
                h.u32(static_cast<std::uint32_t>(reloc.kind));
                h.u32(reloc.targetBlock);
                h.str(reloc.targetFunction);
                h.u32(reloc.literalIndex);
            }
            h.u64(block.literalPool.size());
            for (const std::int32_t word : block.literalPool) h.i32(word);
        }
        h.u64(fn.sharedLiteralPool.size());
        for (const std::int32_t word : fn.sharedLiteralPool) h.i32(word);
    }
    h.u64(module.data.size());
    for (const DataSegment& segment : module.data) {
        h.u32(segment.baseAddr);
        h.u64(segment.words.size());
        for (const std::int32_t word : segment.words) h.i32(word);
    }
    h.str(module.entryFunction);
    return h.finish();
}

Digest256 legDigest(const Digest256& moduleDigest, SchemeKind scheme,
                    const OperatingPoint& point, std::uint64_t chipSeed,
                    const SystemConfig& t) {
    HashWriter h;
    h.str("voltcache.leg.v2");
    h.digest(moduleDigest);
    h.u32(static_cast<std::uint32_t>(scheme));
    h.str(schemeName(scheme)); // belt and braces if kinds are ever renumbered
    h.f64(point.voltage.millivolts());
    h.f64(point.frequency.megahertz());
    h.f64(point.pFailBit);
    h.u64(chipSeed);
    // L1 organization (shared by both caches).
    h.u32(t.l1Org.sizeBytes);
    h.u32(t.l1Org.blockBytes);
    h.u32(t.l1Org.associativity);
    h.u32(t.l1Org.wordBytes);
    h.u32(t.l1Org.addressBits);
    h.u32(static_cast<std::uint32_t>(t.l1Org.dataCell));
    h.u32(static_cast<std::uint32_t>(t.l1Org.tagCell));
    h.u64(t.maxInstructions);
    h.f64(t.dramLatencyNs);
    h.u32(t.maxBlockWords);
    h.f64(t.faultRateScale);
    // Energy parameters (every reference value shifts EPI).
    h.f64(t.energy.coreDynamicPerInstr);
    h.f64(t.energy.l1AccessEnergy);
    h.f64(t.energy.l2AccessEnergy);
    h.f64(t.energy.l2WriteEnergy);
    h.f64(t.energy.dramAccessEnergy);
    h.f64(t.energy.auxAccessEnergy);
    h.f64(t.energy.coreL1StaticPower);
    h.f64(t.energy.l2StaticPower);
    h.f64(t.energy.referenceVoltage.millivolts());
    // Pipeline + predictor configuration. pipeline.maxInstructions is left
    // out: every leg runs under t.maxInstructions (hashed above), which
    // simulateSystem and replayBatch copy over it.
    h.u32(t.pipeline.issueWidth);
    h.u32(t.pipeline.mispredictPenalty);
    h.u32(t.pipeline.mulLatency);
    h.u32(t.pipeline.divLatency);
    h.u32(t.pipeline.predictor.bhtEntries);
    h.u32(t.pipeline.predictor.btbEntries);
    h.u32(t.pipeline.predictor.btbWays);
    h.u32(t.pipeline.predictor.rasEntries);
    return h.finish();
}

SweepResult runSweep(const SweepConfig& config) {
    const obs::Span sweepSpan("sweep");
    std::vector<std::string> benchmarks = config.benchmarks;
    if (benchmarks.empty()) {
        for (const auto& info : benchmarkList()) benchmarks.emplace_back(info.name);
    }
    std::vector<SchemeKind> schemes = config.schemes;
    if (schemes.empty()) schemes = paperSchemes();
    std::vector<OperatingPoint> points = config.points;
    if (points.empty()) {
        const auto low = DvfsTable::lowVoltagePoints();
        points.assign(low.begin(), low.end());
    }

    unsigned requested = config.threads != 0 ? config.threads
                                             : std::thread::hardware_concurrency();
    if (requested == 0) requested = 4;

    // --- Phase 1a: modules + content digests (cheap, always built). ---
    SystemConfig baseTemplate = config.systemTemplate;
    baseTemplate.maxInstructions = config.maxInstructions;

    // Replay needs the legs to run exactly what was recorded: external
    // observers must watch real execution, so their presence disables the
    // fast path wholesale — and the result store with it (a cached leg skips
    // execution entirely, so observers would see nothing).
    const bool replayEnabled = config.useReplay && config.systemTemplate.observers.empty();
    const bool cacheEnabled =
        config.resultSource != nullptr && config.systemTemplate.observers.empty();
    const bool anyBbrScheme =
        std::any_of(schemes.begin(), schemes.end(),
                    [](SchemeKind kind) { return schemeNeedsBbrLinking(kind); });

    std::vector<BenchmarkContext> contexts(benchmarks.size());
    std::vector<std::exception_ptr> moduleErrors(benchmarks.size());
    const auto buildModules = [&](std::size_t b) {
        try {
            BenchmarkContext& ctx = contexts[b];
            ctx.name = benchmarks[b];
            ctx.module = buildBenchmark(ctx.name, config.scale);
            ctx.bbrModule = ctx.module; // deep copy
            applyBbrTransforms(ctx.bbrModule, config.systemTemplate.maxBlockWords);
            if (cacheEnabled) ctx.digest = moduleDigest(ctx.module);
        } catch (...) {
            moduleErrors[b] = std::current_exception();
        }
    };
    runIndexed(benchmarks.size(), std::min<unsigned>(requested, benchmarks.size()),
               buildModules);
    rethrowFirst(moduleErrors);

    // --- Phase 2: flatten the grid into legs, in canonical order. ---
    std::vector<Leg> legs;
    legs.reserve(benchmarks.size() * points.size() * schemes.size() * config.trials);
    for (std::uint32_t b = 0; b < benchmarks.size(); ++b) {
        for (std::uint32_t p = 0; p < points.size(); ++p) {
            for (std::uint32_t s = 0; s < schemes.size(); ++s) {
                // Defect-free kinds are deterministic: one trial suffices.
                const std::uint32_t trials =
                    schemes[s] == SchemeKind::Robust8T ? std::min(1u, config.trials)
                                                       : config.trials;
                for (std::uint32_t t = 0; t < trials; ++t) {
                    legs.push_back(Leg{b, p, s, t});
                }
            }
        }
    }

    // --- Phase 2a: probe the result store before committing to any heavy
    // work. A hit fills the leg's canonical slot directly; a benchmark whose
    // legs all hit never records a trace or runs its reference simulations.
    std::vector<LegResult> slots(legs.size());
    std::vector<char> fromStore(legs.size(), 0);
    std::vector<Digest256> legKeys;
    if (cacheEnabled) {
        const obs::Span probeSpan("store_probe");
        legKeys.resize(legs.size());
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const Leg& leg = legs[i];
            const int voltageMv = mv(points[leg.point].voltage);
            legKeys[i] = legDigest(contexts[leg.benchmark].digest, schemes[leg.scheme],
                                   points[leg.point],
                                   chipSeed(config.baseSeed, voltageMv, leg.trial),
                                   baseTemplate);
            if (config.resultSource->lookup(legKeys[i], slots[i])) fromStore[i] = 1;
        }
    }
    std::vector<char> needSimulation(benchmarks.size(), cacheEnabled ? 0 : 1);
    if (cacheEnabled) {
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (fromStore[i] == 0) needSimulation[legs[i].benchmark] = 1;
        }
    }

    // --- Phase 1b: heavy per-benchmark artifacts, only where a leg will
    // actually simulate. Two tasks per benchmark run in parallel: the plain
    // layout's (trace recording, the 760mV reference, per-point defect-free
    // runs) and the BBR twin's recording. ---
    // Conventional cache pinned at Vccmin = 760mV: the Fig. 12 normalization
    // baseline (and the functional reference checksum). With replay enabled
    // each layout's recording run doubles as its reference run.
    SystemConfig ref = baseTemplate;
    ref.scheme = SchemeKind::Conventional760;
    ref.op = DvfsTable::vccminBaseline();
    const auto recordLayout = [&](const BenchmarkContext& ctx, const Module& module,
                                  const char* layout, SystemResult& outResult) {
        std::unique_ptr<const ReplaySource> trace =
            recordReplaySource(module, ref, config.traceByteCap, outResult);
        if (trace == nullptr) {
            std::fprintf(stderr,
                         "sweep: %s trace for '%s' exceeded the %llu-byte cap; "
                         "falling back to execution-driven legs\n",
                         layout, ctx.name.c_str(),
                         static_cast<unsigned long long>(config.traceByteCap));
        }
        return trace;
    };
    const auto buildPlainContext = [&](BenchmarkContext& ctx) {
        if (replayEnabled) {
            ctx.traces.plain = recordLayout(ctx, ctx.module, "plain-layout", ctx.ref760);
        } else {
            ctx.ref760 = simulateSystem(ctx.module, nullptr, ref);
        }
        VC_ENSURES(!ctx.ref760.linkFailed);

        std::vector<BatchLane> lanes(points.size());
        for (std::size_t p = 0; p < points.size(); ++p) {
            lanes[p].config = ref;
            lanes[p].config.scheme = SchemeKind::DefectFree;
            lanes[p].config.op = points[p];
        }
        if (ctx.traces.plain != nullptr) {
            // One batch over the operating points: the defect-free runs
            // share the plain trace, so its tape decodes once for all.
            replayBatch(nullptr, ctx.traces, lanes);
        } else {
            for (BatchLane& lane : lanes) {
                lane.result = simulateSystem(ctx.module, nullptr, lane.config);
            }
        }
        ctx.defectFree.reserve(points.size());
        for (BatchLane& lane : lanes) ctx.defectFree.push_back(std::move(lane.result));
    };
    // The BBR twin runs a different layout, so BBR legs replay their own
    // recording (one extra execution-driven run, amortized over every
    // FFW+BBR trial).
    const bool recordBbr = replayEnabled && anyBbrScheme;
    std::vector<std::exception_ptr> contextErrors(2 * benchmarks.size());
    const auto buildContext = [&](std::size_t task) {
        const obs::Span span("context");
        const std::size_t b = task / 2;
        const bool bbrLayout = task % 2 == 1;
        try {
            if (needSimulation[b] == 0) return;
            BenchmarkContext& ctx = contexts[b];
            if (!bbrLayout) {
                buildPlainContext(ctx);
            } else if (recordBbr) {
                ctx.traces.bbr = recordLayout(ctx, ctx.bbrModule, "BBR-layout", ctx.bbrRef760);
            }
        } catch (...) {
            contextErrors[task] = std::current_exception();
        }
    };
    runIndexed(contextErrors.size(), std::min<unsigned>(requested, contextErrors.size()),
               buildContext);
    rethrowFirst(contextErrors);
    for (const BenchmarkContext& ctx : contexts) {
        // The transform must not change the program's answer.
        if (ctx.traces.bbr != nullptr && ctx.bbrRef760.run.halted && ctx.ref760.run.halted) {
            VC_CHECK(ctx.bbrRef760.checksum == ctx.ref760.checksum);
        }
    }

    {
        // Resident trace footprint, visible while the sweep holds the caches.
        std::uint64_t residentBytes = 0;
        for (const BenchmarkContext& ctx : contexts) {
            residentBytes += ctx.traces.residentBytes();
        }
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("trace.resident_bytes", {}, static_cast<double>(residentBytes));
        reg.gauge("trace.resident_bytes_peak").setMax(static_cast<double>(residentBytes));
    }

    // --- Phase 2b: give every leg its path and group legs into work units. ---
    // A unit is a single execution-driven leg, a TrialBatch — consecutive
    // replayable legs of one (benchmark, point, layout) group, split into
    // near-equal chunks of at most detail::replayUnitCap lanes, that stream
    // the decoded tape together — or a cached group:
    // store-served legs of one (benchmark, point) window, whose slots are
    // already filled. Unit composition only affects scheduling — every leg
    // still writes its own canonical slot, so the reduction (and the JSON) is
    // byte-identical to the execution-driven, uncached engine.
    std::vector<LegPath> paths(legs.size(), LegPath::Executed);
    for (std::size_t i = 0; i < legs.size(); ++i) {
        if (fromStore[i] != 0) {
            paths[i] = LegPath::Cached;
        } else if (contexts[legs[i].benchmark].traces.canReplay(schemes[legs[i].scheme])) {
            paths[i] = LegPath::Replayed;
        }
    }
    const std::size_t laneCap = detail::replayUnitCap(
        config.batchLanes,
        static_cast<std::size_t>(std::count(paths.begin(), paths.end(), LegPath::Replayed)),
        requested);
    std::vector<std::vector<std::size_t>> units;
    {
        const auto pushChunked = [&](const std::vector<std::size_t>& group) {
            auto start = group.begin();
            for (const std::size_t size : detail::chunkSizes(group.size(), laneCap)) {
                const auto end = start + static_cast<std::ptrdiff_t>(size);
                units.emplace_back(start, end);
                start = end;
            }
        };
        std::size_t i = 0;
        while (i < legs.size()) {
            std::vector<std::size_t> plainGroup;
            std::vector<std::size_t> bbrGroup;
            std::vector<std::size_t> cachedGroup;
            std::size_t j = i;
            for (; j < legs.size() && legs[j].benchmark == legs[i].benchmark &&
                   legs[j].point == legs[i].point;
                 ++j) {
                if (paths[j] == LegPath::Cached) {
                    cachedGroup.push_back(j);
                } else if (paths[j] == LegPath::Replayed) {
                    (schemeNeedsBbrLinking(schemes[legs[j].scheme]) ? bbrGroup : plainGroup)
                        .push_back(j);
                } else {
                    units.push_back({j});
                }
            }
            if (!cachedGroup.empty()) units.push_back(std::move(cachedGroup));
            pushChunked(plainGroup);
            pushChunked(bbrGroup);
            i = j;
        }
    }

    const unsigned workers =
        std::min<unsigned>(requested, std::max<std::size_t>(units.size(), 1));

    // Leg lifecycle events: observational only. None of it touches slots,
    // scheduling decisions, or the reduction — the sweep JSON stays
    // byte-identical with any hook attached.
    const bool hooked = static_cast<bool>(config.onLegEvent);
    const auto legEvent = [&](std::size_t index, obs::LegEvent::Phase phase,
                              unsigned workerId) {
        const Leg& leg = legs[index];
        obs::LegEvent event;
        event.phase = phase;
        event.leg = static_cast<std::uint32_t>(index);
        event.worker = workerId;
        event.setBenchmark(contexts[leg.benchmark].name);
        event.setScheme(schemeName(schemes[leg.scheme]));
        event.voltageMv = mv(points[leg.point].voltage);
        event.trial = leg.trial;
        event.replayed = paths[index] == LegPath::Replayed;
        event.cached = paths[index] == LegPath::Cached;
        return event;
    };

    // Leg lifecycle: every leg is announced once, in canonical order, from
    // the coordinating thread before any worker starts.
    if (hooked) {
        for (std::size_t i = 0; i < legs.size(); ++i) {
            config.onLegEvent(legEvent(i, obs::LegEvent::Phase::Enqueued, 0));
        }
    }

    // --- Phase 3: workers pull units and fill pre-sized slots (cached slots
    // were already filled by the phase-2a probe). ---
    std::vector<std::exception_ptr> legErrors(legs.size());
    std::vector<std::atomic<std::size_t>> pendingPerBenchmark(benchmarks.size());
    for (const Leg& leg : legs) {
        pendingPerBenchmark[leg.benchmark].fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> legsCompleted{0};
    std::array<std::atomic<std::size_t>, 3> legsByPath{}; ///< indexed by LegPath
    const auto legsOn = [&legsByPath](LegPath path) {
        return legsByPath[static_cast<std::size_t>(path)].load(std::memory_order_relaxed);
    };
    std::size_t benchmarksCompleted = 0;
    std::mutex progressMutex;

    // One chip = one (point, trial): all defect-tolerant scheme legs across
    // every benchmark run against the same pre-drawn map pair. The whole
    // point's trials are drawn in one batched pass on first touch.
    std::vector<PointMapSlot> chipMapCache(points.size());
    const auto chipMapsFor = [&](std::uint32_t pointIdx, std::uint32_t trial,
                                 const SystemConfig& sys) -> const detail::LegFaultMaps* {
        PointMapSlot& slot = chipMapCache[pointIdx];
        std::call_once(slot.once, [&] {
            std::vector<std::uint64_t> seeds(config.trials);
            for (std::uint32_t t = 0; t < config.trials; ++t) {
                seeds[t] = chipSeed(config.baseSeed, mv(points[pointIdx].voltage), t);
            }
            slot.maps = detail::generateChipFaultMapsBatch(sys, seeds);
        });
        return &slot.maps[trial];
    };

    // Deterministic per-leg metric harvest (the computation is per lane
    // whichever engine produced the result).
    const auto harvestLeg = [&](const Leg& leg, const SystemResult& res) {
        const BenchmarkContext& ctx = contexts[leg.benchmark];
        LegResult metrics;
        metrics.linkFailed = res.linkFailed;
        metrics.forensics = res.forensics;
        if (!res.linkFailed) {
            // Functional correctness: every scheme must compute the same
            // answer as the 760mV reference.
            if (res.run.halted && ctx.ref760.run.halted &&
                res.checksum != ctx.ref760.checksum) {
                throw std::logic_error("checksum mismatch in '" + ctx.name +
                                       "': scheme corrupted execution");
            }
            const SystemResult& df = ctx.defectFree[leg.point];
            metrics.normRuntime = res.runtimeSeconds / df.runtimeSeconds;
            metrics.l2PerKilo = res.run.l2AccessesPerKilo();
            metrics.normEpi = res.epi / ctx.ref760.epi;
            const auto cycles = static_cast<double>(res.run.cycles);
            metrics.busyFrac = static_cast<double>(res.run.busyCycles()) / cycles;
            metrics.ifetchFrac = static_cast<double>(res.run.ifetchStallCycles) / cycles;
            metrics.dmemFrac = static_cast<double>(res.run.dmemStallCycles) / cycles;
            metrics.branchFrac = static_cast<double>(res.run.branchStallCycles) / cycles;
        }
        return metrics;
    };

    // Progress ticks are serialized under progressMutex (callers hold it).
    const auto progressTick = [&](bool boundary, const std::string& benchmark) {
        SweepProgress tick;
        tick.benchmarksCompleted = benchmarksCompleted;
        tick.benchmarksTotal = benchmarks.size();
        tick.benchmark = benchmark;
        tick.boundary = boundary;
        tick.legsCompleted = legsCompleted.load(std::memory_order_relaxed);
        tick.legsTotal = legs.size();
        tick.legsExecuted = legsOn(LegPath::Executed);
        tick.legsReplayed = legsOn(LegPath::Replayed);
        tick.legsCached = legsOn(LegPath::Cached);
        tick.workers = workers;
        config.onProgress(tick);
    };
    const auto finishBenchmark = [&](std::uint32_t b) {
        const std::scoped_lock lock(progressMutex);
        ++benchmarksCompleted;
        if (config.onProgress) progressTick(/*boundary=*/true, contexts[b].name);
    };

    // Leg-granular progress: completion-driven ticks, throttled so at most
    // one fires per kLegTickPeriodNs across all workers (CAS claims the
    // window). Pure observation — the sweep JSON stays byte-identical.
    std::atomic<std::uint64_t> lastLegTickNs{steadyNowNs()};
    const auto legTick = [&] {
        if (!config.onProgress) return;
        const std::uint64_t now = steadyNowNs();
        std::uint64_t last = lastLegTickNs.load(std::memory_order_relaxed);
        if (now - last < kLegTickPeriodNs ||
            !lastLegTickNs.compare_exchange_strong(last, now,
                                                   std::memory_order_relaxed)) {
            return;
        }
        const std::scoped_lock lock(progressMutex);
        progressTick(/*boundary=*/false, std::string());
    };

    // The one per-leg finishing routine, whatever path the leg took: harvest
    // `res` into the leg's slot and the store (cached slots arrived filled;
    // a null `res` means the leg's unit failed before producing results),
    // then count the leg, report it (Finished event), and advance progress.
    const auto finishLeg = [&](std::size_t index, const SystemResult* res,
                               unsigned workerId, LegCounters& counters,
                               std::uint64_t startNs, std::uint64_t durationNs) {
        const Leg& leg = legs[index];
        const LegPath path = paths[index];
        bool filled = path == LegPath::Cached;
        if (res != nullptr) {
            try {
                slots[index] = harvestLeg(leg, *res);
                filled = true;
                if (cacheEnabled) config.resultSource->store(legKeys[index], slots[index]);
            } catch (...) {
                legErrors[index] = std::current_exception();
            }
        }
        const LegResult& metrics = slots[index];
        if (filled) {
            counters.record(schemes[leg.scheme], mv(points[leg.point].voltage),
                            metrics.linkFailed);
        }
        counters.legDone(path);
        legsCompleted.fetch_add(1, std::memory_order_relaxed);
        legsByPath[static_cast<std::size_t>(path)].fetch_add(1, std::memory_order_relaxed);
        if (hooked) {
            obs::LegEvent event = legEvent(index, obs::LegEvent::Phase::Finished, workerId);
            event.startNs = startNs;
            event.durationNs = durationNs;
            event.linkFailed = metrics.linkFailed;
            event.setFailCause(linkFailCauseName(metrics.forensics.failCause));
            config.onLegEvent(event);
        }
        if (pendingPerBenchmark[leg.benchmark].fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            finishBenchmark(leg.benchmark);
        } else {
            legTick();
        }
    };

    std::atomic<std::uint64_t> activeWorkers{0};

    // One unit: announce its legs, produce their results on the unit's path
    // (execute the one leg, replay the batch, or nothing for store hits),
    // then finish every leg in canonical order. A failure before results
    // exist is charged to the unit's first leg — first-error-wins reduction
    // surfaces it deterministically.
    const auto runUnit = [&](std::size_t unitIndex, unsigned workerId,
                             LegCounters& counters) {
        activeWorkers.fetch_add(1, std::memory_order_relaxed);
        const std::vector<std::size_t>& unit = units[unitIndex];
        const LegPath path = paths[unit.front()];
        const std::uint64_t startedNs = steadyNowNs();
        if (hooked) {
            for (const std::size_t index : unit) {
                config.onLegEvent(legEvent(index, obs::LegEvent::Phase::Started, workerId));
            }
        }
        std::vector<BatchLane> lanes;
        bool ran = false;
        if (path != LegPath::Cached) {
            try {
                lanes.resize(unit.size());
                for (std::size_t i = 0; i < unit.size(); ++i) {
                    // ci.sh negative control: trip a contract at the
                    // requested canonical leg (1-based) to exercise the
                    // flight recorder's contract-hook dump path end to end.
                    VC_CHECK(config.failAtLeg == 0 ||
                             unit[i] + 1 != static_cast<std::size_t>(config.failAtLeg));
                    const Leg& leg = legs[unit[i]];
                    SystemConfig& sys = lanes[i].config;
                    sys = baseTemplate;
                    sys.scheme = schemes[leg.scheme];
                    sys.op = points[leg.point];
                    sys.faultMapSeed =
                        chipSeed(config.baseSeed, mv(points[leg.point].voltage), leg.trial);
                    if (!detail::schemeIsDefectFree(sys.scheme)) {
                        lanes[i].chipMaps = chipMapsFor(leg.point, leg.trial, sys);
                    }
                }
                const BenchmarkContext& ctx = contexts[legs[unit.front()].benchmark];
                if (path == LegPath::Replayed) {
                    replayBatch(&ctx.bbrModule, ctx.traces, lanes);
                } else {
                    lanes[0].result = simulateSystem(ctx.module, &ctx.bbrModule,
                                                     lanes[0].config, lanes[0].chipMaps);
                }
                ran = true;
            } catch (...) {
                legErrors[unit.front()] = std::current_exception();
            }
        }
        if (path == LegPath::Replayed) counters.batchDone(unit.size());
        // Wall time is attributed evenly (batched lanes run interleaved
        // through the shared tape); on the trace timeline the legs tile the
        // unit's wall window.
        const std::uint64_t legNs = (steadyNowNs() - startedNs) / unit.size();
        for (std::size_t i = 0; i < unit.size(); ++i) {
            finishLeg(unit[i], ran ? &lanes[i].result : nullptr, workerId, counters,
                      startedNs + i * legNs, legNs);
        }
        activeWorkers.fetch_sub(1, std::memory_order_relaxed);
    };

    // Worker-utilization / queue-depth sampler, attached only when someone is
    // watching (profiling enabled or a trace sink installed): its background
    // thread reads the executor's atomics and never touches leg state, so it
    // cannot perturb the deterministic result.
    std::optional<obs::UtilizationSampler> sampler;
    if (obs::Profiler::enabled() || obs::traceSink() != nullptr) {
        const std::uint64_t totalLegs = legs.size();
        sampler.emplace([&activeWorkers, &legsCompleted, workers, totalLegs] {
            const std::uint64_t active = activeWorkers.load(std::memory_order_relaxed);
            const std::uint64_t done = legsCompleted.load(std::memory_order_relaxed);
            const std::uint64_t inFlight = done + active;
            return obs::UtilizationSampler::Sample{
                active, workers, totalLegs > inFlight ? totalLegs - inFlight : 0};
        });
    }

    const auto started = std::chrono::steady_clock::now();
    if (workers <= 1) {
        LegCounters counters;
        for (std::size_t i = 0; i < units.size(); ++i) runUnit(i, 0, counters);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> team;
        team.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) {
            team.emplace_back([&, t] {
                LegCounters counters;
                while (true) {
                    const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
                    if (index >= units.size()) return;
                    runUnit(index, t, counters);
                }
            });
        }
        for (auto& worker : team) worker.join();
    }
    sampler.reset(); // joins the sampler thread and emits the final sample
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    if (!legs.empty() && elapsed > 0.0) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("sweep.legs_per_sec", {}, static_cast<double>(legs.size()) / elapsed);
        reg.set("sweep.workers", {}, static_cast<double>(workers));
    }

    // A benchmark that contributed no legs (e.g. trials == 0) still gets its
    // completion tick, in benchmark order, for parity with the old executor.
    for (std::uint32_t b = 0; b < benchmarks.size(); ++b) {
        if (pendingPerBenchmark[b].load(std::memory_order_relaxed) == 0 &&
            std::none_of(legs.begin(), legs.end(),
                         [b](const Leg& leg) { return leg.benchmark == b; })) {
            finishBenchmark(b);
        }
    }

    // First leg error wins, by canonical leg order — deterministic for any
    // thread count (the old executor surfaced whichever thread threw first).
    for (const std::exception_ptr& error : legErrors) {
        if (error) std::rethrow_exception(error);
    }

    // --- Phase 4: deterministic reduction in canonical leg order. ---
    // Every RunningStats sees its samples in exactly this sequence, so the
    // aggregated floating-point state — and the exported JSON — is
    // bit-identical regardless of how the legs were scheduled.
    const obs::Span reduceSpan("reduce");
    SweepResult result;
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const Leg& leg = legs[i];
        const SchemeKind scheme = schemes[leg.scheme];
        const int voltageMv = mv(points[leg.point].voltage);
        accumulate(result.cells[{scheme, voltageMv}], slots[i]);
        accumulate(result.perBenchmark[{contexts[leg.benchmark].name, scheme, voltageMv}],
                   slots[i]);
        const LegForensics& forensics = slots[i].forensics;
        if (forensics.hasFfw || forensics.hasBbr ||
            forensics.failCause != LinkFailCause::None) {
            accumulate(result.forensics[{scheme, voltageMv}], forensics);
        }
    }
    return result;
}

} // namespace voltcache
