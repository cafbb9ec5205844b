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

/// Shared immutable per-benchmark artifacts, built once before any leg runs.
struct BenchmarkContext {
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

/// The sweep's one failure rule: the error of the lowest canonical index
/// surfaces, so which one does never depends on the thread count.
void rethrowFirst(const std::vector<std::exception_ptr>& errors) {
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

/// Run `job(index, worker)` for every index in [0, count) on at most
/// `threads` workers (worker ids 0..threads-1) pulling indices off an atomic
/// queue (work-stealing by over-decomposition: every index is a steal).
/// Every index runs even when another throws; then rethrowFirst.
void runIndexed(std::size_t count, unsigned threads,
                const std::function<void(std::size_t, unsigned)>& job) {
    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    const auto work = [&](unsigned worker) {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                job(i, worker);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    threads = static_cast<unsigned>(std::min<std::size_t>(threads, count));
    if (threads <= 1) {
        work(0);
    } else {
        std::vector<std::thread> team;
        team.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) team.emplace_back(work, t);
        for (auto& worker : team) worker.join();
    }
    rethrowFirst(errors);
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

/// The execute step: builds what the plan's legs need — modules, store
/// probes, per-benchmark contexts, work units — then runs the units and
/// fills one LegResult slot per leg, in canonical order.
class SweepExecution {
public:
    SweepExecution(const detail::SweepPlan& plan, const SweepConfig& config)
        : plan_(plan),
          grid_(plan.grid),
          config_(config),
          contexts_(grid_.benchmarks.size()),
          slots_(plan.legs.size()),
          paths_(plan.legs.size(), LegPath::Executed),
          legErrors_(plan.legs.size()),
          chipMaps_(grid_.points.size()),
          pendingPerBenchmark_(grid_.benchmarks.size()) {
        // Conventional cache pinned at Vccmin = 760mV: the Fig. 12
        // normalization baseline (and the functional reference checksum).
        // With replay enabled each layout's recording run doubles as its
        // reference run.
        ref_ = plan.legTemplate;
        ref_.scheme = SchemeKind::Conventional760;
        ref_.op = DvfsTable::vccminBaseline();
    }

    std::vector<LegResult> run() {
        runIndexed(contexts_.size(), plan_.workers,
                   [this](std::size_t b, unsigned) { buildModule(b); });
        const std::vector<char> needSimulation = probeStore();
        runIndexed(2 * contexts_.size(), plan_.workers, [&](std::size_t task, unsigned) {
            const obs::Span span("context");
            if (needSimulation[task / 2] != 0) buildContext(task / 2, task % 2 == 1);
        });
        std::uint64_t residentBytes = 0; // visible while the sweep holds the traces
        for (const BenchmarkContext& ctx : contexts_) {
            // The transform must not change the program's answer.
            if (ctx.traces.bbr != nullptr && ctx.bbrRef760.run.halted && ctx.ref760.run.halted) {
                VC_CHECK(ctx.bbrRef760.checksum == ctx.ref760.checksum);
            }
            residentBytes += ctx.traces.residentBytes();
        }
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("trace.resident_bytes", {}, static_cast<double>(residentBytes));
        reg.gauge("trace.resident_bytes_peak").setMax(static_cast<double>(residentBytes));

        buildUnits();
        runUnits();
        return std::move(slots_);
    }

private:
    void buildModule(std::size_t b) {
        BenchmarkContext& ctx = contexts_[b];
        ctx.module = buildBenchmark(grid_.benchmarks[b], config_.scale);
        ctx.bbrModule = ctx.module; // deep copy
        applyBbrTransforms(ctx.bbrModule, config_.systemTemplate.maxBlockWords);
        if (config_.resultSource != nullptr) ctx.digest = moduleDigest(ctx.module);
    }

    /// Probe the result store before committing to any heavy work. A hit
    /// fills the leg's canonical slot directly; returns, per benchmark,
    /// whether any of its legs still has to simulate — one whose legs all
    /// hit never records a trace or runs its reference simulations.
    std::vector<char> probeStore() {
        std::vector<char> needSimulation(contexts_.size(), config_.resultSource == nullptr);
        if (config_.resultSource == nullptr) return needSimulation;
        const obs::Span probeSpan("store_probe");
        legKeys_.resize(plan_.legs.size());
        for (std::size_t i = 0; i < plan_.legs.size(); ++i) {
            const detail::SweepLeg& leg = plan_.legs[i];
            legKeys_[i] = legDigest(contexts_[leg.benchmark].digest, grid_.schemes[leg.scheme],
                                    grid_.points[leg.point], plan_.chipSeeds[leg.point][leg.trial],
                                    plan_.legTemplate);
            if (config_.resultSource->lookup(legKeys_[i], slots_[i])) {
                paths_[i] = LegPath::Cached;
            } else {
                needSimulation[leg.benchmark] = 1;
            }
        }
        return needSimulation;
    }

    std::unique_ptr<const ReplaySource> recordLayout(std::size_t b, const Module& module,
                                                     const char* layout,
                                                     SystemResult& outResult) const {
        std::unique_ptr<const ReplaySource> trace =
            recordReplaySource(module, ref_, config_.traceByteCap, outResult);
        if (trace == nullptr) {
            std::fprintf(stderr,
                         "sweep: %s trace for '%s' exceeded the %llu-byte cap; "
                         "falling back to execution-driven legs\n",
                         layout, grid_.benchmarks[b].c_str(),
                         static_cast<unsigned long long>(config_.traceByteCap));
        }
        return trace;
    }

    /// One of a benchmark's two context tasks. The plain layout's: trace
    /// recording, the 760mV reference and the per-point defect-free runs.
    /// The BBR twin's: its own recording (it runs a different layout, so BBR
    /// legs replay it — one extra execution-driven run, amortized over
    /// every FFW+BBR trial).
    void buildContext(std::size_t b, bool bbrLayout) {
        BenchmarkContext& ctx = contexts_[b];
        if (bbrLayout) {
            if (config_.useReplay && std::ranges::any_of(grid_.schemes, schemeNeedsBbrLinking)) {
                ctx.traces.bbr = recordLayout(b, ctx.bbrModule, "BBR-layout", ctx.bbrRef760);
            }
            return;
        }
        if (config_.useReplay) {
            ctx.traces.plain = recordLayout(b, ctx.module, "plain-layout", ctx.ref760);
        } else {
            ctx.ref760 = simulateSystem(ctx.module, nullptr, ref_);
        }
        VC_ENSURES(!ctx.ref760.linkFailed);

        std::vector<BatchLane> lanes(grid_.points.size());
        for (std::size_t p = 0; p < grid_.points.size(); ++p) {
            lanes[p].config = ref_;
            lanes[p].config.scheme = SchemeKind::DefectFree;
            lanes[p].config.op = grid_.points[p];
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
        ctx.defectFree.reserve(grid_.points.size());
        for (BatchLane& lane : lanes) ctx.defectFree.push_back(std::move(lane.result));
    }

    /// Give every leg its path and group the legs into work units. A unit
    /// is a single execution-driven leg, a TrialBatch — consecutive
    /// replayable legs of one (benchmark, point, layout) group, split into
    /// near-equal chunks of at most detail::replayUnitCap lanes, that stream
    /// the decoded tape together — or a cached group: store-served legs of
    /// one (benchmark, point) window, whose slots are already filled. Unit
    /// composition only affects scheduling — every leg still writes its own
    /// canonical slot, so the reduction (and the JSON) is byte-identical to
    /// the execution-driven, uncached engine.
    void buildUnits() {
        const std::vector<detail::SweepLeg>& legs = plan_.legs;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (paths_[i] != LegPath::Cached &&
                contexts_[legs[i].benchmark].traces.canReplay(grid_.schemes[legs[i].scheme])) {
                paths_[i] = LegPath::Replayed;
            }
        }
        const std::size_t laneCap = detail::replayUnitCap(
            config_.batchLanes,
            static_cast<std::size_t>(std::count(paths_.begin(), paths_.end(), LegPath::Replayed)),
            plan_.workers);
        const auto pushChunked = [&](const std::vector<std::size_t>& group) {
            auto start = group.begin();
            for (const std::size_t size : detail::chunkSizes(group.size(), laneCap)) {
                const auto end = start + static_cast<std::ptrdiff_t>(size);
                units_.emplace_back(start, end);
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
                if (paths_[j] == LegPath::Cached) {
                    cachedGroup.push_back(j);
                } else if (paths_[j] == LegPath::Replayed) {
                    (schemeNeedsBbrLinking(grid_.schemes[legs[j].scheme]) ? bbrGroup : plainGroup)
                        .push_back(j);
                } else {
                    units_.push_back({j});
                }
            }
            if (!cachedGroup.empty()) units_.push_back(std::move(cachedGroup));
            pushChunked(plainGroup);
            pushChunked(bbrGroup);
            i = j;
        }
        workers_ = std::min<unsigned>(plan_.workers, std::max<std::size_t>(units_.size(), 1));
    }

    /// Workers pull units and fill the pre-sized slots (cached slots were
    /// already filled by the store probe).
    void runUnits() {
        const std::vector<detail::SweepLeg>& legs = plan_.legs;
        for (const detail::SweepLeg& leg : legs) {
            pendingPerBenchmark_[leg.benchmark].fetch_add(1, std::memory_order_relaxed);
        }
        lastLegTickNs_.store(steadyNowNs(), std::memory_order_relaxed);
        // Leg lifecycle: every leg is announced once, in canonical order,
        // from the coordinating thread before any worker starts.
        for (std::size_t i = 0; config_.onLegEvent && i < legs.size(); ++i) {
            config_.onLegEvent(legEvent(i, obs::LegEvent::Phase::Enqueued, 0));
        }

        // Worker-utilization / queue-depth sampler, attached only when
        // someone is watching (profiling enabled or a trace sink installed):
        // its background thread reads the executor's atomics and never
        // touches leg state, so it cannot perturb the deterministic result.
        std::optional<obs::UtilizationSampler> sampler;
        if (obs::Profiler::enabled() || obs::traceSink() != nullptr) {
            sampler.emplace([this, totalLegs = static_cast<std::uint64_t>(legs.size())] {
                const std::uint64_t active = activeWorkers_.load(std::memory_order_relaxed);
                const std::uint64_t inFlight =
                    legsCompleted_.load(std::memory_order_relaxed) + active;
                return obs::UtilizationSampler::Sample{
                    active, workers_, totalLegs > inFlight ? totalLegs - inFlight : 0};
            });
        }

        const std::uint64_t startedNs = steadyNowNs();
        std::vector<std::optional<LegCounters>> counters(workers_);
        runIndexed(units_.size(), workers_, [&](std::size_t unit, unsigned worker) {
            // Counter handles resolve to the constructing thread's shard.
            if (!counters[worker].has_value()) counters[worker].emplace();
            runUnit(unit, worker, *counters[worker]);
        });
        sampler.reset(); // joins the sampler thread and emits the final sample
        const double elapsed = 1e-9 * static_cast<double>(steadyNowNs() - startedNs);
        if (!legs.empty() && elapsed > 0.0) {
            obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
            reg.set("sweep.legs_per_sec", {}, static_cast<double>(legs.size()) / elapsed);
            reg.set("sweep.workers", {}, static_cast<double>(workers_));
        }

        if (legs.empty()) {
            // A grid without legs (e.g. trials == 0) still ticks every
            // benchmark's completion, in benchmark order.
            for (std::uint32_t b = 0; b < contexts_.size(); ++b) finishBenchmark(b);
        }
        rethrowFirst(legErrors_);
    }

    /// One unit: announce its legs, produce their results on the unit's path
    /// (execute the one leg, replay the batch, or nothing for store hits),
    /// then finish every leg in canonical order. A failure before results
    /// exist is charged to the unit's first leg.
    void runUnit(std::size_t unitIndex, unsigned worker, LegCounters& counters) {
        activeWorkers_.fetch_add(1, std::memory_order_relaxed);
        const std::vector<std::size_t>& unit = units_[unitIndex];
        const LegPath path = paths_[unit.front()];
        const std::uint64_t startedNs = steadyNowNs();
        for (std::size_t i = 0; config_.onLegEvent && i < unit.size(); ++i) {
            config_.onLegEvent(legEvent(unit[i], obs::LegEvent::Phase::Started, worker));
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
                    VC_CHECK(config_.failAtLeg == 0 ||
                             unit[i] + 1 != static_cast<std::size_t>(config_.failAtLeg));
                    const detail::SweepLeg& leg = plan_.legs[unit[i]];
                    SystemConfig& sys = lanes[i].config;
                    sys = plan_.legTemplate;
                    sys.scheme = grid_.schemes[leg.scheme];
                    sys.op = grid_.points[leg.point];
                    sys.faultMapSeed = plan_.chipSeeds[leg.point][leg.trial];
                    if (!detail::schemeIsDefectFree(sys.scheme)) {
                        lanes[i].chipMaps = chipMapsFor(leg, sys);
                    }
                }
                const BenchmarkContext& ctx = contexts_[plan_.legs[unit.front()].benchmark];
                if (path == LegPath::Replayed) {
                    replayBatch(&ctx.bbrModule, ctx.traces, lanes);
                } else {
                    lanes[0].result = simulateSystem(ctx.module, &ctx.bbrModule,
                                                     lanes[0].config, lanes[0].chipMaps);
                }
                ran = true;
            } catch (...) {
                legErrors_[unit.front()] = std::current_exception();
            }
        }
        if (path == LegPath::Replayed) counters.batchDone(unit.size());
        // Wall time is attributed evenly (batched lanes run interleaved
        // through the shared tape); on the trace timeline the legs tile the
        // unit's wall window.
        const std::uint64_t legNs = (steadyNowNs() - startedNs) / unit.size();
        for (std::size_t i = 0; i < unit.size(); ++i) {
            finishLeg(unit[i], ran ? &lanes[i].result : nullptr, worker, counters,
                      startedNs + i * legNs, legNs);
        }
        activeWorkers_.fetch_sub(1, std::memory_order_relaxed);
    }

    /// One chip = one (point, trial): all defect-tolerant scheme legs across
    /// every benchmark run against the same pre-drawn map pair. The whole
    /// point's trials are drawn in one batched pass on first touch.
    const detail::LegFaultMaps* chipMapsFor(const detail::SweepLeg& leg,
                                            const SystemConfig& sys) {
        PointMapSlot& slot = chipMaps_[leg.point];
        std::call_once(slot.once, [&] {
            slot.maps = detail::generateChipFaultMapsBatch(sys, plan_.chipSeeds[leg.point]);
        });
        return &slot.maps[leg.trial];
    }

    /// The one per-leg finishing routine, whatever path the leg took:
    /// harvest `res` into the leg's slot and the store (cached slots arrived
    /// filled; a null `res` means the leg's unit failed before producing
    /// results), then count the leg, report it (Finished event), and
    /// advance progress.
    void finishLeg(std::size_t index, const SystemResult* res, unsigned worker,
                   LegCounters& counters, std::uint64_t startNs, std::uint64_t durationNs) {
        const detail::SweepLeg& leg = plan_.legs[index];
        const LegPath path = paths_[index];
        bool filled = path == LegPath::Cached;
        if (res != nullptr) {
            try {
                slots_[index] = harvestLeg(leg, *res);
                filled = true;
                if (config_.resultSource != nullptr) {
                    config_.resultSource->store(legKeys_[index], slots_[index]);
                }
            } catch (...) {
                legErrors_[index] = std::current_exception();
            }
        }
        const LegResult& metrics = slots_[index];
        if (filled) {
            counters.record(grid_.schemes[leg.scheme], mv(grid_.points[leg.point].voltage),
                            metrics.linkFailed);
        }
        counters.legDone(path);
        legsCompleted_.fetch_add(1, std::memory_order_relaxed);
        legsByPath_[static_cast<std::size_t>(path)].fetch_add(1, std::memory_order_relaxed);
        if (config_.onLegEvent) {
            obs::LegEvent event = legEvent(index, obs::LegEvent::Phase::Finished, worker);
            event.startNs = startNs;
            event.durationNs = durationNs;
            event.linkFailed = metrics.linkFailed;
            event.setFailCause(linkFailCauseName(metrics.forensics.failCause));
            config_.onLegEvent(event);
        }
        if (pendingPerBenchmark_[leg.benchmark].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            finishBenchmark(leg.benchmark);
        } else {
            legTick();
        }
    }

    /// Deterministic per-leg metric harvest (the computation is per lane
    /// whichever engine produced the result).
    LegResult harvestLeg(const detail::SweepLeg& leg, const SystemResult& res) const {
        const BenchmarkContext& ctx = contexts_[leg.benchmark];
        LegResult metrics;
        metrics.linkFailed = res.linkFailed;
        metrics.forensics = res.forensics;
        if (!res.linkFailed) {
            // Functional correctness: every scheme must compute the same
            // answer as the 760mV reference.
            if (res.run.halted && ctx.ref760.run.halted && res.checksum != ctx.ref760.checksum) {
                throw std::logic_error("checksum mismatch in '" +
                                       grid_.benchmarks[leg.benchmark] +
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
    }

    /// Leg lifecycle events are observational only. None of it touches
    /// slots, scheduling decisions, or the reduction — the sweep JSON stays
    /// byte-identical with any hook attached.
    obs::LegEvent legEvent(std::size_t index, obs::LegEvent::Phase phase, unsigned worker) const {
        const detail::SweepLeg& leg = plan_.legs[index];
        obs::LegEvent event;
        event.phase = phase;
        event.leg = static_cast<std::uint32_t>(index);
        event.worker = worker;
        event.setBenchmark(grid_.benchmarks[leg.benchmark]);
        event.setScheme(schemeName(grid_.schemes[leg.scheme]));
        event.voltageMv = mv(grid_.points[leg.point].voltage);
        event.trial = leg.trial;
        event.replayed = paths_[index] == LegPath::Replayed;
        event.cached = paths_[index] == LegPath::Cached;
        return event;
    }

    /// Callers hold progressMutex_, which serializes onProgress.
    void progressTick(bool boundary, const std::string& benchmark) {
        const auto legsOn = [this](LegPath path) {
            return legsByPath_[static_cast<std::size_t>(path)].load(std::memory_order_relaxed);
        };
        SweepProgress tick;
        tick.benchmarksCompleted = benchmarksCompleted_;
        tick.benchmarksTotal = contexts_.size();
        tick.benchmark = benchmark;
        tick.boundary = boundary;
        tick.legsCompleted = legsCompleted_.load(std::memory_order_relaxed);
        tick.legsTotal = plan_.legs.size();
        tick.legsExecuted = legsOn(LegPath::Executed);
        tick.legsReplayed = legsOn(LegPath::Replayed);
        tick.legsCached = legsOn(LegPath::Cached);
        tick.workers = workers_;
        config_.onProgress(tick);
    }

    void finishBenchmark(std::uint32_t b) {
        const std::scoped_lock lock(progressMutex_);
        ++benchmarksCompleted_;
        if (config_.onProgress) progressTick(/*boundary=*/true, grid_.benchmarks[b]);
    }

    /// Leg-granular progress: completion-driven ticks, throttled so at most
    /// one fires per kLegTickPeriodNs across all workers (CAS claims the
    /// window). Pure observation — the sweep JSON stays byte-identical.
    void legTick() {
        if (!config_.onProgress) return;
        const std::uint64_t now = steadyNowNs();
        std::uint64_t last = lastLegTickNs_.load(std::memory_order_relaxed);
        if (now - last < kLegTickPeriodNs ||
            !lastLegTickNs_.compare_exchange_strong(last, now, std::memory_order_relaxed)) {
            return;
        }
        const std::scoped_lock lock(progressMutex_);
        progressTick(/*boundary=*/false, std::string());
    }

    const detail::SweepPlan& plan_;
    const SweepGrid& grid_;
    const SweepConfig& config_;
    SystemConfig ref_; ///< the 760mV conventional reference run
    std::vector<BenchmarkContext> contexts_;
    std::vector<LegResult> slots_;
    std::vector<Digest256> legKeys_; ///< filled when a store is probed
    std::vector<LegPath> paths_;
    std::vector<std::vector<std::size_t>> units_;
    unsigned workers_ = 1; ///< plan.workers clamped to the unit count
    std::vector<std::exception_ptr> legErrors_;
    std::vector<PointMapSlot> chipMaps_;
    std::vector<std::atomic<std::size_t>> pendingPerBenchmark_;
    std::atomic<std::size_t> legsCompleted_{0};
    std::array<std::atomic<std::size_t>, 3> legsByPath_{}; ///< indexed by LegPath
    std::mutex progressMutex_;
    std::size_t benchmarksCompleted_ = 0; ///< guarded by progressMutex_
    std::atomic<std::uint64_t> lastLegTickNs_{0};
    std::atomic<std::uint64_t> activeWorkers_{0};
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

unsigned sweepWorkers(unsigned threads) {
    if (threads != 0) return threads;
    const unsigned host = std::thread::hardware_concurrency();
    return host != 0 ? host : 4;
}

SweepPlan planSweep(const SweepConfig& config) {
    SweepPlan plan;
    plan.grid = sweepGrid(config);
    plan.legTemplate = config.systemTemplate;
    plan.legTemplate.maxInstructions = config.maxInstructions;
    plan.workers = sweepWorkers(config.threads);
    const SweepGrid& grid = plan.grid;
    plan.legs.reserve(grid.benchmarks.size() * grid.points.size() * grid.schemes.size() *
                      config.trials);
    for (std::uint32_t b = 0; b < grid.benchmarks.size(); ++b) {
        for (std::uint32_t p = 0; p < grid.points.size(); ++p) {
            for (std::uint32_t s = 0; s < grid.schemes.size(); ++s) {
                // Defect-free kinds are deterministic: one trial suffices.
                const std::uint32_t trials = grid.schemes[s] == SchemeKind::Robust8T
                                                 ? std::min(1u, config.trials)
                                                 : config.trials;
                for (std::uint32_t t = 0; t < trials; ++t) plan.legs.push_back({b, p, s, t});
            }
        }
    }
    // Distinct per (voltage, trial), independent of scheme and benchmark.
    plan.chipSeeds.resize(grid.points.size());
    for (std::size_t p = 0; p < grid.points.size(); ++p) {
        const auto voltageBits = static_cast<std::uint64_t>(mv(grid.points[p].voltage)) << 32;
        for (std::uint32_t t = 0; t < config.trials; ++t) {
            SplitMix64 mixer(config.baseSeed ^ voltageBits ^ t);
            plan.chipSeeds[p].push_back(mixer.next());
        }
    }
    return plan;
}

SweepResult reduceSweep(const SweepPlan& plan, std::span<const LegResult> slots) {
    VC_EXPECTS(slots.size() == plan.legs.size());
    // Every RunningStats sees its samples in exactly this sequence, so the
    // aggregated floating-point state — and the exported JSON — is
    // bit-identical regardless of how the legs were scheduled.
    const obs::Span reduceSpan("reduce");
    SweepResult result;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const SweepLeg& leg = plan.legs[i];
        const SchemeKind scheme = plan.grid.schemes[leg.scheme];
        const int voltageMv = mv(plan.grid.points[leg.point].voltage);
        accumulate(result.cells[{scheme, voltageMv}], slots[i]);
        accumulate(result.perBenchmark[{plan.grid.benchmarks[leg.benchmark], scheme, voltageMv}],
                   slots[i]);
        const LegForensics& forensics = slots[i].forensics;
        if (forensics.hasFfw || forensics.hasBbr ||
            forensics.failCause != LinkFailCause::None) {
            accumulate(result.forensics[{scheme, voltageMv}], forensics);
        }
    }
    return result;
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

SweepGrid sweepGrid(const SweepConfig& config) {
    SweepGrid grid{config.benchmarks, config.schemes, config.points};
    if (grid.benchmarks.empty()) {
        for (const auto& info : benchmarkList()) grid.benchmarks.emplace_back(info.name);
    }
    if (grid.schemes.empty()) grid.schemes = paperSchemes();
    if (grid.points.empty()) {
        const auto low = DvfsTable::lowVoltagePoints();
        grid.points.assign(low.begin(), low.end());
    }
    return grid;
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
    VC_EXPECTS(config.systemTemplate.observers.empty());
    const obs::Span sweepSpan("sweep");
    const detail::SweepPlan plan = detail::planSweep(config);
    const std::vector<LegResult> slots = SweepExecution(plan, config).run();
    return detail::reduceSweep(plan, slots);
}

} // namespace voltcache
