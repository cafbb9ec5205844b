#include "core/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include <cstdio>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/replay.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace voltcache {

namespace {

using obs::steadyNowNs;

int mv(Voltage v) { return static_cast<int>(std::lround(v.millivolts())); }

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

/// The order ready tasks run in: every benchmark's build before any context
/// or mapgen, those before any unit; ties in push order. Long contexts thus
/// start early, and a unit waits only for its own benchmark's contexts and
/// its point's maps, never for a phase barrier.
enum class Stage : std::uint8_t { Build, Prepare, Unit };

/// One job's tasks. A running task may push its dependents; run() returns
/// once no task is ready or running. Each task runs under a worker id below
/// `workers`, held by one thread at a time. Pool threads serve the job; the
/// calling thread runs the module builds, and any task while no pool thread
/// serves the job — a one-worker job, or a pool busy with other jobs — so a
/// job always progresses. The state is guarded by the pool's mutex; the
/// tasks run unlocked.
class TaskGraph {
public:
    using Body = std::function<void(unsigned worker)>;

    explicit TaskGraph(unsigned workers) : pooled_(workers > 1) {
        for (unsigned id = workers; id > 0; --id) freeIds_.push_back(id - 1);
    }

    void push(Stage stage, Body body);
    /// Run every task; then rethrow the first exception a task let escape.
    void run();

private:
    friend class WorkerPool;
    struct Task {
        Stage stage;
        std::uint64_t sequence;
        Body body;
        /// Heap order: the earliest stage, then the earliest push, on top.
        bool operator<(const Task& other) const {
            return std::tie(stage, sequence) > std::tie(other.stage, other.sequence);
        }
    };

    [[nodiscard]] bool done() const { return pending_ == 0 && helpers_ == 0 && invited_ == 0; }

    const bool pooled_;       ///< whether pool threads may serve the job
    bool running_ = false;    ///< run() called: pool threads can find the job
    std::vector<Task> ready_; ///< a heap under Task::operator<
    std::uint64_t pushed_ = 0;
    std::size_t pending_ = 0;       ///< tasks ready or running
    std::vector<unsigned> freeIds_; ///< worker ids no thread holds, lowest at the back
    unsigned helpers_ = 0;          ///< pool threads inside the job
    unsigned invited_ = 0;          ///< pool threads woken for the job, not yet in it
    bool callerAsleep_ = false;
    std::condition_variable callerWake_;
    std::exception_ptr escaped_;
};

/// The process-lifetime thread pool every job shares. Threads start with the
/// first job that wants them, grow to the most workers any job has asked
/// for, never shrink, and sleep on a condition variable between jobs. A
/// lone job's contexts, maps and units run on pool threads only, as they
/// ran on per-job threads before: a calling thread that simulated would
/// grow its own allocator arena (glibc keeps one per thread), and a process
/// calling from several threads would hold one more arena's worth of freed
/// memory per caller. The pool is never destroyed: a sleeping thread holds
/// no job state, and process exit ends it.
class WorkerPool {
public:
    static WorkerPool& instance() {
        static WorkerPool* const pool = new WorkerPool;
        return *pool;
    }

    void push(TaskGraph& job, TaskGraph::Task task) {
        const std::scoped_lock lock(mutex_);
        task.sequence = job.pushed_++;
        job.ready_.push_back(std::move(task));
        std::push_heap(job.ready_.begin(), job.ready_.end());
        ++job.pending_;
        if (job.running_) serve(job);
    }

    void run(TaskGraph& job) {
        std::unique_lock lock(mutex_);
        job.running_ = true;
        if (job.pooled_) {
            while (threads_.size() < job.freeIds_.size()) {
                ++idle_; // asleep from its start, so serve() can invite it
                threads_.emplace_back([this] { helperLoop(); });
            }
            jobs_.push_back(&job);
            serve(job);
        }
        while (!job.done()) {
            if (!job.ready_.empty() && !job.freeIds_.empty() &&
                (job.ready_.front().stage == Stage::Build || job.helpers_ + job.invited_ == 0)) {
                // A build, or no pool thread serves the job: run the task as
                // one of its workers.
                const unsigned worker = job.freeIds_.back();
                job.freeIds_.pop_back();
                runOne(lock, job, worker);
                job.freeIds_.push_back(worker);
            } else {
                job.callerAsleep_ = true;
                job.callerWake_.wait(lock, [&job] { return !job.callerAsleep_; });
            }
        }
        if (job.pooled_) jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
        if (job.escaped_) std::rethrow_exception(job.escaped_);
    }

    [[nodiscard]] unsigned threads() {
        const std::scoped_lock lock(mutex_);
        return static_cast<unsigned>(threads_.size());
    }

private:
    WorkerPool() = default;

    static void wakeCaller(TaskGraph& job) {
        if (!job.callerAsleep_) return;
        job.callerAsleep_ = false;
        job.callerWake_.notify_one();
    }

    /// Invite sleeping threads while the job has more ready tasks than free
    /// ids taken; with none to invite and none serving, wake the caller.
    void serve(TaskGraph& job) {
        const std::size_t useful = std::min(job.ready_.size(), job.freeIds_.size());
        while (job.pooled_ && job.invited_ < useful && idle_ > wakeTokens_) {
            ++job.invited_;
            ++wakeTokens_;
            wake_.notify_one();
        }
        if (job.helpers_ + job.invited_ == 0) wakeCaller(job);
    }

    /// Pop the job's next task and run it unlocked as `worker`.
    static void runOne(std::unique_lock<std::mutex>& lock, TaskGraph& job, unsigned worker) {
        std::pop_heap(job.ready_.begin(), job.ready_.end());
        TaskGraph::Body body = std::move(job.ready_.back().body);
        job.ready_.pop_back();
        lock.unlock();
        std::exception_ptr escaped;
        try {
            body(worker);
        } catch (...) {
            escaped = std::current_exception();
        }
        body = nullptr; // release the task's captures outside the lock
        lock.lock();
        if (escaped && !job.escaped_) job.escaped_ = escaped;
        --job.pending_;
    }

    /// Sleep until a job invites the thread; it is counted in idle_.
    void sleepUntilInvited(std::unique_lock<std::mutex>& lock) {
        wake_.wait(lock, [this] { return wakeTokens_ > 0; });
        --wakeTokens_;
        --idle_;
    }

    void helperLoop() {
        std::unique_lock lock(mutex_);
        sleepUntilInvited(lock);
        bool invited = true; // woken by a job's invitation, which it answers
        while (true) {
            const auto job = std::find_if(jobs_.begin(), jobs_.end(), [&](const TaskGraph* j) {
                return invited ? j->invited_ > 0 : !j->ready_.empty() && !j->freeIds_.empty();
            });
            if (job == jobs_.end()) {
                ++idle_;
                sleepUntilInvited(lock);
                invited = true;
                continue;
            }
            TaskGraph& graph = **job;
            if (invited) --graph.invited_;
            invited = false;
            if (!graph.ready_.empty() && !graph.freeIds_.empty()) {
                const unsigned worker = graph.freeIds_.back();
                graph.freeIds_.pop_back();
                ++graph.helpers_;
                while (!graph.ready_.empty()) runOne(lock, graph, worker);
                graph.freeIds_.push_back(worker);
                --graph.helpers_;
            }
            if (graph.done()) wakeCaller(graph);
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<TaskGraph*> jobs_; ///< running jobs that take pool threads, oldest first
    std::vector<std::thread> threads_; ///< never joined: the pool outlives every job
    unsigned idle_ = 0;       ///< threads asleep on wake_
    unsigned wakeTokens_ = 0; ///< invitations sent and not yet taken (sum of invited_)
};

void TaskGraph::push(Stage stage, Body body) {
    WorkerPool::instance().push(*this, Task{stage, 0, std::move(body)});
}

void TaskGraph::run() { WorkerPool::instance().run(*this); }

/// The sweep's one failure rule: the error of the lowest index surfaces, so
/// which one does never depends on the thread count.
void rethrowFirst(const std::vector<std::exception_ptr>& errors) {
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

/// How a leg got its result: simulated execution-driven, replayed from the
/// benchmark's recorded trace (in a TrialBatch), or served from the store.
enum class LegPath : std::uint8_t { Executed, Replayed, Cached };

/// Error kinds in the order they surface: any module error beats any probe
/// error, which beats any context error, which beats any leg error.
enum class Failure : std::uint8_t { Module, Probe, Context, Leg, None };

/// A work unit: canonical indices of legs that run together.
using Unit = std::vector<std::size_t>;

/// Fault maps for one operating point — every trial's chip at once, drawn by
/// the batched generator (generateChipFaultMapsBatch) in the point's mapgen
/// task, which the first probe miss at the point starts. The chip seeds are
/// scheme- and benchmark-independent, so every defect-tolerant leg of a
/// (point, trial) shares one draw, and batching the point's trials amortizes
/// the failure-model evaluation and map allocation across them.
struct PointMaps {
    std::atomic<bool> requested{false};
    std::mutex mutex;
    bool drawn = false;               ///< guarded by mutex
    std::vector<const Unit*> waiting; ///< guarded by mutex: pushed once drawn
    std::vector<detail::LegFaultMaps> maps; ///< indexed by trial; final once drawn
    std::exception_ptr error;               ///< charged to every unit needing the maps
};

/// Per-worker (scheme, voltage) leg counters through the handle API: the
/// handles resolve to the constructing thread's shard once, so the hot loop
/// never touches the registry lock.
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

/// The execute step: one task graph per job. Per benchmark: build the
/// module, then probe the store (a continuation of the build task), then
/// the two context tasks, then the work units — each unit also waiting for
/// its point's maps. Every leg fills one pre-sized LegResult slot, so the
/// canonical reduction sees the same slots whatever ran where.
class SweepExecution {
public:
    SweepExecution(const detail::SweepPlan& plan, const SweepConfig& config)
        : plan_(plan),
          grid_(plan.grid),
          config_(config),
          workers_(static_cast<unsigned>(std::min<std::size_t>(
              plan.workers,
              std::max<std::size_t>({2 * plan.grid.benchmarks.size(), plan.legs.size(), 1})))),
          graph_(workers_),
          contexts_(grid_.benchmarks.size()),
          firstLeg_(grid_.benchmarks.size() + 1, 0),
          slots_(plan.legs.size()),
          legKeys_(config.resultSource != nullptr ? plan.legs.size() : 0),
          paths_(plan.legs.size(), LegPath::Executed),
          units_(grid_.benchmarks.size()),
          moduleErrors_(grid_.benchmarks.size()),
          probeErrors_(grid_.benchmarks.size()),
          contextErrors_(2 * grid_.benchmarks.size()),
          legErrors_(plan.legs.size()),
          contextsLeft_(grid_.benchmarks.size()),
          chipMaps_(grid_.points.size()),
          pendingPerBenchmark_(grid_.benchmarks.size()),
          counters_(workers_) {
        // Conventional cache pinned at Vccmin = 760mV: the Fig. 12
        // normalization baseline (and the functional reference checksum).
        // With replay enabled each layout's recording run doubles as its
        // reference run.
        ref_ = plan.legTemplate;
        ref_.scheme = SchemeKind::Conventional760;
        ref_.op = DvfsTable::vccminBaseline();
        // Legs are in canonical order, so each benchmark's form one range.
        for (const detail::SweepLeg& leg : plan.legs) ++firstLeg_[leg.benchmark + 1];
        std::partial_sum(firstLeg_.begin(), firstLeg_.end(), firstLeg_.begin());
        for (std::size_t b = 0; b < contexts_.size(); ++b) {
            pendingPerBenchmark_[b].store(firstLeg_[b + 1] - firstLeg_[b],
                                          std::memory_order_relaxed);
            contextsLeft_[b].store(2, std::memory_order_relaxed);
        }
    }

    std::vector<LegResult> run() {
        const std::vector<detail::SweepLeg>& legs = plan_.legs;
        lastLegTickNs_.store(steadyNowNs(), std::memory_order_relaxed);
        // Leg lifecycle: every leg is announced once, in canonical order,
        // from the calling thread before any task runs — so before the
        // probe and the contexts pick its path.
        for (std::size_t i = 0; config_.onLegEvent && i < legs.size(); ++i) {
            config_.onLegEvent(legEvent(i, obs::LegEvent::Phase::Enqueued, 0));
        }
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("trace.resident_bytes", {}, 0.0); // grows as benchmarks record traces

        // Worker-utilization / queue-depth sampler, attached only when
        // someone is watching (profiling enabled or the current job takes
        // instant events; a traced job alone does not start one):
        // its background thread reads the executor's atomics and never
        // touches leg state, so it cannot perturb the deterministic result.
        std::optional<obs::UtilizationSampler> sampler;
        if (obs::Profiler::enabled() || obs::instantEventsOn()) {
            sampler.emplace([this, totalLegs = static_cast<std::uint64_t>(legs.size())] {
                const std::uint64_t active = activeWorkers_.load(std::memory_order_relaxed);
                const std::uint64_t inFlight =
                    legsCompleted_.load(std::memory_order_relaxed) + active;
                return obs::UtilizationSampler::Sample{
                    active, workers_, totalLegs > inFlight ? totalLegs - inFlight : 0};
            });
        }

        const std::uint64_t startedNs = steadyNowNs();
        for (std::uint32_t b = 0; b < contexts_.size(); ++b) {
            graph_.push(Stage::Build, [this, b](unsigned worker) { buildModule(b, worker); });
        }
        graph_.run();
        trimReplayCaches();
        sampler.reset(); // joins the sampler thread and emits the final sample
        const double elapsed = 1e-9 * static_cast<double>(steadyNowNs() - startedNs);
        if (!legs.empty() && elapsed > 0.0) {
            reg.set("sweep.legs_per_sec", {}, static_cast<double>(legs.size()) / elapsed);
            reg.set("sweep.workers", {}, static_cast<double>(workers_));
        }

        if (legs.empty()) {
            // A grid without legs (e.g. trials == 0) still ticks every
            // benchmark's completion, in benchmark order.
            for (std::uint32_t b = 0; b < contexts_.size(); ++b) finishBenchmark(b);
        }
        rethrowFirst(moduleErrors_);
        rethrowFirst(probeErrors_);
        rethrowFirst(contextErrors_);
        rethrowFirst(legErrors_);
        // Without an error every task ran: a leg whose dependencies never
        // released it would leave an unfilled slot behind.
        VC_ENSURES(legsCompleted_.load(std::memory_order_relaxed) == legs.size());
        return std::move(slots_);
    }

private:
    /// Record the current exception in `slot` (one task owns each slot).
    void fail(Failure kind, std::exception_ptr& slot) {
        slot = std::current_exception();
        auto first = firstFailure_.load(std::memory_order_relaxed);
        while (kind < first &&
               !firstFailure_.compare_exchange_weak(first, kind, std::memory_order_relaxed)) {
        }
    }

    /// Whether an error that beats every `kind` error is already recorded:
    /// the task can skip its work without changing which error surfaces.
    /// Builds never skip — every module error must be seen.
    [[nodiscard]] bool superseded(Failure kind) const {
        return firstFailure_.load(std::memory_order_relaxed) < kind;
    }

    void buildModule(std::uint32_t b, unsigned worker) {
        BenchmarkContext& ctx = contexts_[b];
        try {
            ctx.module = buildBenchmark(grid_.benchmarks[b], config_.scale);
            ctx.bbrModule = ctx.module; // deep copy
            applyBbrTransforms(ctx.bbrModule, config_.systemTemplate.maxBlockWords);
            if (config_.resultSource != nullptr) ctx.digest = moduleDigest(ctx.module);
        } catch (...) {
            fail(Failure::Module, moduleErrors_[b]);
            return;
        }
        if (config_.resultSource != nullptr) {
            probeStore(b, worker);
        } else {
            prepare(b);
        }
    }

    /// Probe the store for the benchmark's legs before committing to any
    /// heavy work: keys computed here, in parallel with other benchmarks'
    /// tasks, then looked up under one store lock. A hit fills the leg's
    /// canonical slot directly. Misses start the benchmark's contexts and
    /// their points' maps; then the hits finish on this worker. A benchmark
    /// whose legs all hit never records a trace or draws a map.
    void probeStore(std::uint32_t b, unsigned worker) {
        if (superseded(Failure::Probe)) return;
        const std::size_t begin = firstLeg_[b];
        const std::size_t count = firstLeg_[b + 1] - begin;
        std::size_t hits = 0;
        try {
            const obs::Span probeSpan("store_probe");
            for (std::size_t i = begin; i < begin + count; ++i) {
                const detail::SweepLeg& leg = plan_.legs[i];
                legKeys_[i] = legDigest(contexts_[b].digest, grid_.schemes[leg.scheme],
                                        grid_.points[leg.point],
                                        plan_.chipSeeds[leg.point][leg.trial], plan_.legTemplate);
            }
            std::vector<char> hit(count);
            hits = config_.resultSource->lookupBatch(
                std::span<const Digest256>(legKeys_).subspan(begin, count),
                std::span<LegResult>(slots_).subspan(begin, count), hit);
            for (std::size_t k = 0; k < count; ++k) {
                if (hit[k] != 0) paths_[begin + k] = LegPath::Cached;
            }
        } catch (...) {
            fail(Failure::Probe, probeErrors_[b]);
            return;
        }
        if (hits < count) prepare(b);
        // The hits, one unit per point window (their slots are filled).
        for (std::size_t i = begin; i < begin + count;) {
            Unit cached;
            const std::uint32_t point = plan_.legs[i].point;
            for (; i < begin + count && plan_.legs[i].point == point; ++i) {
                if (paths_[i] == LegPath::Cached) cached.push_back(i);
            }
            if (!cached.empty()) runUnit(cached, worker);
        }
    }

    /// Start what the benchmark's uncached legs need: its two context tasks
    /// and the maps of every point where a defect-tolerant leg simulates.
    void prepare(std::uint32_t b) {
        bool simulates = false;
        for (std::size_t i = firstLeg_[b]; i < firstLeg_[b + 1]; ++i) {
            if (paths_[i] == LegPath::Cached) continue;
            simulates = true;
            const detail::SweepLeg& leg = plan_.legs[i];
            if (!detail::schemeIsDefectFree(grid_.schemes[leg.scheme]) &&
                !chipMaps_[leg.point].requested.exchange(true, std::memory_order_relaxed)) {
                graph_.push(Stage::Prepare, [this, p = leg.point](unsigned) { drawMaps(p); });
            }
        }
        if (!simulates) return;
        for (const bool bbrLayout : {false, true}) {
            graph_.push(Stage::Prepare,
                        [this, b, bbrLayout](unsigned) { contextTask(b, bbrLayout); });
        }
    }

    /// The point's mapgen task: draw every trial's chip, then release the
    /// units that waited for them.
    void drawMaps(std::uint32_t p) {
        PointMaps& slot = chipMaps_[p];
        if (!superseded(Failure::Leg)) {
            try {
                SystemConfig sys = plan_.legTemplate;
                sys.op = grid_.points[p];
                slot.maps = detail::generateChipFaultMapsBatch(sys, plan_.chipSeeds[p]);
            } catch (...) {
                slot.error = std::current_exception();
            }
        }
        std::vector<const Unit*> waiting;
        {
            const std::scoped_lock lock(slot.mutex);
            slot.drawn = true;
            waiting.swap(slot.waiting);
        }
        for (const Unit* unit : waiting) pushUnit(*unit);
    }

    void contextTask(std::uint32_t b, bool bbrLayout) {
        if (!superseded(Failure::Context)) {
            try {
                const obs::Span span("context");
                buildContext(b, bbrLayout);
            } catch (...) {
                fail(Failure::Context, contextErrors_[2 * b + (bbrLayout ? 1 : 0)]);
            }
        }
        // The second context to finish sees the first one's writes.
        if (contextsLeft_[b].fetch_sub(1, std::memory_order_acq_rel) == 1) contextsReady(b);
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

    /// Both contexts are in: check them, account the traces, and release
    /// the benchmark's units.
    void contextsReady(std::uint32_t b) {
        if (contextErrors_[2 * b] || contextErrors_[2 * b + 1] || superseded(Failure::Leg)) return;
        const BenchmarkContext& ctx = contexts_[b];
        try {
            // The transform must not change the program's answer.
            if (ctx.traces.bbr != nullptr && ctx.bbrRef760.run.halted && ctx.ref760.run.halted) {
                VC_CHECK(ctx.bbrRef760.checksum == ctx.ref760.checksum);
            }
        } catch (...) {
            fail(Failure::Context, contextErrors_[2 * b + 1]);
            return;
        }
        // Visible while the sweep holds the traces.
        const auto resident = static_cast<double>(
            residentBytes_.fetch_add(ctx.traces.residentBytes(), std::memory_order_relaxed) +
            ctx.traces.residentBytes());
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("trace.resident_bytes", {}, resident);
        reg.gauge("trace.resident_bytes_peak").setMax(resident);
        buildUnits(b);
    }

    /// Give the benchmark's uncached legs their paths and group them into
    /// work units: a single execution-driven leg, or a TrialBatch —
    /// consecutive replayable legs of one (point, layout) group, split into
    /// near-equal chunks of at most detail::replayUnitCap lanes, that stream
    /// the decoded tape together. Unit composition only affects scheduling —
    /// every leg still writes its own canonical slot, so the reduction (and
    /// the JSON) is byte-identical to the execution-driven, uncached engine.
    /// A unit with a defect-tolerant leg runs once its point's maps are
    /// drawn; the others run at once.
    void buildUnits(std::uint32_t b) {
        const std::vector<detail::SweepLeg>& legs = plan_.legs;
        const std::size_t end = firstLeg_[b + 1];
        std::size_t replayable = 0;
        for (std::size_t i = firstLeg_[b]; i < end; ++i) {
            if (paths_[i] != LegPath::Cached &&
                contexts_[b].traces.canReplay(grid_.schemes[legs[i].scheme])) {
                paths_[i] = LegPath::Replayed;
                ++replayable;
            }
        }
        const std::size_t laneCap =
            detail::replayUnitCap(config_.batchLanes, replayable, plan_.workers);
        std::vector<Unit>& units = units_[b];
        const auto pushChunked = [&](const Unit& group) {
            auto start = group.begin();
            for (const std::size_t size : detail::chunkSizes(group.size(), laneCap)) {
                const auto stop = start + static_cast<std::ptrdiff_t>(size);
                units.emplace_back(start, stop);
                start = stop;
            }
        };
        for (std::size_t i = firstLeg_[b]; i < end;) {
            Unit plainGroup;
            Unit bbrGroup;
            const std::uint32_t point = legs[i].point;
            for (; i < end && legs[i].point == point; ++i) {
                if (paths_[i] == LegPath::Replayed) {
                    (schemeNeedsBbrLinking(grid_.schemes[legs[i].scheme]) ? bbrGroup : plainGroup)
                        .push_back(i);
                } else if (paths_[i] == LegPath::Executed) {
                    units.push_back({i});
                }
            }
            pushChunked(plainGroup);
            pushChunked(bbrGroup);
        }
        // units is complete: the pointers below stay valid.
        for (const Unit& unit : units) {
            const bool needsMaps = std::ranges::any_of(unit, [&](std::size_t i) {
                return !detail::schemeIsDefectFree(grid_.schemes[legs[i].scheme]);
            });
            if (needsMaps) {
                PointMaps& slot = chipMaps_[legs[unit.front()].point];
                const std::scoped_lock lock(slot.mutex);
                if (!slot.drawn) {
                    slot.waiting.push_back(&unit);
                    continue;
                }
            }
            pushUnit(unit);
        }
    }

    void pushUnit(const Unit& unit) {
        graph_.push(Stage::Unit, [this, &unit](unsigned worker) { runUnit(unit, worker); });
    }

    /// One unit: announce its legs, produce their results on the unit's path
    /// (execute the one leg, replay the batch, or nothing for store hits),
    /// then finish every leg in canonical order. A failure before results
    /// exist is charged to the unit's first leg.
    void runUnit(const Unit& unit, unsigned worker) {
        const LegPath path = paths_[unit.front()];
        if (path != LegPath::Cached && superseded(Failure::Leg)) return;
        // Counter handles resolve to the shard of the first thread to run
        // as this worker; the cells are atomic, so later holders share them.
        if (!counters_[worker].has_value()) counters_[worker].emplace();
        LegCounters& counters = *counters_[worker];
        activeWorkers_.fetch_add(1, std::memory_order_relaxed);
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
                        // One chip = one (point, trial): every defect-tolerant
                        // leg on it, across benchmarks, shares the map pair.
                        const PointMaps& slot = chipMaps_[leg.point];
                        if (slot.error) std::rethrow_exception(slot.error);
                        lanes[i].chipMaps = &slot.maps[leg.trial];
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
                fail(Failure::Leg, legErrors_[unit.front()]);
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
                fail(Failure::Leg, legErrors_[index]);
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
    /// plan.workers clamped to the widest the graph can get (two contexts
    /// per benchmark, one unit per leg): the worker ids are 0..workers_-1.
    unsigned workers_;
    TaskGraph graph_;
    std::vector<BenchmarkContext> contexts_;
    std::vector<std::size_t> firstLeg_; ///< benchmark b's legs: [firstLeg_[b], firstLeg_[b+1])
    std::vector<LegResult> slots_;
    std::vector<Digest256> legKeys_; ///< filled when a store is probed
    std::vector<LegPath> paths_;
    std::vector<std::vector<Unit>> units_; ///< per benchmark; fixed once its units are pushed
    std::vector<std::exception_ptr> moduleErrors_;  ///< per benchmark
    std::vector<std::exception_ptr> probeErrors_;   ///< per benchmark
    std::vector<std::exception_ptr> contextErrors_; ///< per context task (2b, 2b+1)
    std::vector<std::exception_ptr> legErrors_;     ///< per canonical leg
    std::atomic<Failure> firstFailure_{Failure::None};
    std::vector<std::atomic<int>> contextsLeft_; ///< per benchmark
    std::vector<PointMaps> chipMaps_;            ///< per point
    std::vector<std::atomic<std::size_t>> pendingPerBenchmark_;
    std::vector<std::optional<LegCounters>> counters_; ///< per worker id
    std::atomic<std::uint64_t> residentBytes_{0};
    std::atomic<std::size_t> legsCompleted_{0};
    std::array<std::atomic<std::size_t>, 3> legsByPath_{}; ///< indexed by LegPath
    std::mutex progressMutex_;
    std::size_t benchmarksCompleted_ = 0; ///< guarded by progressMutex_
    std::atomic<std::uint64_t> lastLegTickNs_{0};
    std::atomic<std::uint64_t> activeWorkers_{0};
};

} // namespace

std::size_t LegResultSource::lookupBatch(std::span<const Digest256> keys,
                                         std::span<LegResult> out, std::span<char> hits) {
    std::size_t found = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        hits[i] = lookup(keys[i], out[i]) ? 1 : 0;
        found += static_cast<std::size_t>(hits[i]);
    }
    return found;
}

namespace detail {

unsigned executorThreads() { return WorkerPool::instance().threads(); }

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
    const unsigned host = std::thread::hardware_concurrency();
    const unsigned wanted = threads != 0 ? threads : host != 0 ? host : 4;
    // Past kMaxThreadSlots a worker records into no event ring and owns no span stack.
    return std::min(wanted, obs::kMaxThreadSlots);
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
