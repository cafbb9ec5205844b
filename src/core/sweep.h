// Monte Carlo evaluation sweep (paper Section V): for every (benchmark,
// scheme, DVFS operating point), simulate several chips (fault-map seeds)
// and aggregate the Fig. 10 / Fig. 11 / Fig. 12 metrics:
//   * runtime normalized to the defect-free baseline at the same voltage,
//   * L2 accesses per 1000 instructions,
//   * EPI normalized to the conventional cache pinned at Vccmin = 760mV.
// The same seed produces the same fault maps for every scheme, so schemes
// are compared on identical chips (paired samples).
//
// Execution model: plan → execute → reduce. The plan (detail::planSweep,
// pure) resolves the grid, flattens it into (benchmark, point, scheme,
// trial) legs in canonical order and draws one chip seed per (point,
// trial). Execute runs one task graph per call on a process-lifetime
// thread pool, started on the first call with more than one worker; the
// calling thread runs the module builds, and any task while no pool thread
// serves its job, so concurrent calls share the pool and each always
// progresses. Per benchmark the graph is: build the module, probe the
// result store for its legs, run its two context tasks — the plain
// recording with the reference and defect-free runs, and the BBR twin's
// recording — then its work units (one executed leg, or a batch of
// replayed legs — see detail::replayUnitCap), each also waiting for its
// point's mapgen task, which the first probe miss at the point starts.
// No phase waits for another benchmark. Every leg writes its metrics into
// a pre-sized slot; a failure surfaces as the first module error, else the
// first probe, context or leg error, each by lowest canonical index. Reduce
// (detail::reduceSweep) walks the slots in canonical leg order, so the
// aggregated result — and its JSON export — is bit-identical for every
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "core/system.h"
#include "obs/progress.h"
#include "workload/workload.h"

namespace voltcache {

/// One progress tick of runSweep. It and the leg lifecycle event
/// (obs::LegEvent) are defined in obs/progress.h so observers below core can
/// consume them as is.
using SweepProgress = obs::SweepProgress;

/// The per-leg result slot: exactly what the canonical reduction consumes,
/// so a leg served from a result store is indistinguishable — byte for byte,
/// through every RunningStats accumulation — from one that simulated.
struct LegResult {
    bool linkFailed = false;
    double normRuntime = 0.0;
    double l2PerKilo = 0.0;
    double normEpi = 0.0;
    double busyFrac = 0.0;
    double ifetchFrac = 0.0;
    double dmemFrac = 0.0;
    double branchFrac = 0.0;
    LegForensics forensics;
};

/// Injectable content-addressed result source consulted before any leg
/// simulates (src/serve/store.h implements it as an LRU + on-disk segment).
/// lookup() fills `out` and returns true on a hit; store() is called with
/// every freshly simulated leg. The sweep probes one benchmark's legs at a
/// time through lookupBatch(), which sets hits[i] (and fills out[i]) for
/// each hit and returns the number of hits; the default calls lookup() per
/// key, and a source behind one lock overrides it to take the lock once.
/// All three run concurrently from sweep workers and must be thread-safe.
class LegResultSource {
public:
    virtual ~LegResultSource() = default;
    virtual bool lookup(const Digest256& key, LegResult& out) = 0;
    virtual std::size_t lookupBatch(std::span<const Digest256> keys, std::span<LegResult> out,
                                    std::span<char> hits);
    virtual void store(const Digest256& key, const LegResult& value) = 0;
};

/// Content hash of a module image: functions, blocks, instructions,
/// relocations, literal pools, data segments, and the entry symbol. Two
/// modules with equal digests produce identical simulations under equal
/// configs — the module component of the leg content key.
[[nodiscard]] Digest256 moduleDigest(const Module& module);

/// Content key of one Monte Carlo leg: module digest, scheme, operating
/// point (voltage / frequency / pFailBit), chip seed, and every SystemConfig
/// field that can change the simulated outcome (L1 geometry, DRAM latency,
/// BBR block cap, fault-rate scale, energy parameters, pipeline and
/// predictor configuration, instruction cap). Fields are hashed explicitly,
/// field by field — never as raw struct bytes — so the key is stable across
/// compilers and ABIs.
[[nodiscard]] Digest256 legDigest(const Digest256& moduleDigest, SchemeKind scheme,
                                  const OperatingPoint& point, std::uint64_t chipSeed,
                                  const SystemConfig& systemTemplate);

struct SweepConfig {
    std::vector<std::string> benchmarks;    ///< empty = all ten
    std::vector<SchemeKind> schemes;        ///< empty = the Fig. 10 set
    std::vector<OperatingPoint> points;     ///< empty = Table II 560..400mV
    WorkloadScale scale = WorkloadScale::Small;
    std::uint32_t trials = 5;               ///< fault maps per operating point
    std::uint64_t baseSeed = 0xC0FFEE;
    std::uint64_t maxInstructions = 0;
    /// Workers; 0 = hardware concurrency (4 when unknown); at most
    /// obs::kMaxThreadSlots (64) either way. The shared pool
    /// lends up to this many threads while the job has tasks ready, growing
    /// the first time a job asks for more; 1 runs the job on the calling
    /// thread alone. Never more than the job's widest step (two contexts
    /// per benchmark, one unit per leg), so worker ids stay dense.
    unsigned threads = 0;
    /// Org / energy / pipeline knobs. Observers must be empty: replayed and
    /// stored legs do not execute (attach them through simulateSystem).
    SystemConfig systemTemplate = {};
    /// Record-once / replay-many fast path: each benchmark context records
    /// one architectural trace per layout (plain + BBR twin) and every trial
    /// leg replays it through the trial's fault maps and scheme state.
    /// Results are bit-identical to execution-driven legs (core/replay.h);
    /// `--no-replay` / false falls back to full execution, as does a
    /// benchmark whose trace overflows traceByteCap.
    bool useReplay = true;
    /// Per-trace payload cap in bytes; an overflowing benchmark logs once
    /// and runs execution-driven instead of holding an unbounded trace.
    std::uint64_t traceByteCap = 256ull << 20;
    /// Cap on lanes (trials) per batch; 0 picks the engine default (32).
    /// The replayable legs of one (benchmark, point, layout) group stream
    /// one decoded tape through up to this many trials at once
    /// (core/replay.h replayBatch), in near-equal chunks that a benchmark
    /// with few such legs shrinks further so every worker gets work
    /// (detail::replayUnitCap);
    /// results are byte-identical for every cap, 1 included.
    /// Execution-driven legs are never batched.
    /// Smaller batches trade decode amortization for scheduling grains and
    /// a smaller resident state footprint (~200KB per lane: two tag
    /// arrays, scheme state, L2 counters, pipeline scoreboard).
    std::uint32_t batchLanes = 0;
    /// Content-addressed result source (`voltcache serve`'s store). When
    /// set, each benchmark's leg digests are probed as soon as its module
    /// is built, with one lookupBatch() per benchmark, before any heavy
    /// work: hits skip record/replay/execution entirely (a benchmark whose
    /// legs all hit runs no context task and draws no map), misses simulate
    /// as usual and populate the source. Cached legs feed the reduction the
    /// exact slots a cold run would have produced, so the sweep JSON stays
    /// byte-identical. The source outlives the call; nullptr = off.
    LegResultSource* resultSource = nullptr;
    /// Invoked after each benchmark's last leg completes (boundary ticks)
    /// and on leg completion at most every ~200ms (leg ticks), serialized
    /// under the progress lock (safe to print / write from). Empty = no
    /// reporting. Progress observation never changes the sweep result or
    /// its JSON export.
    std::function<void(const SweepProgress&)> onProgress;
    /// Leg lifecycle hook: one obs::LegEvent per transition (Enqueued,
    /// Started, Finished). Enqueued fires from the calling thread, in
    /// canonical leg order, before any task runs — so before the probe and
    /// the contexts pick the leg's path, and its replayed/cached flags are
    /// false; Started/Finished carry the path and fire concurrently
    /// from workers — the callback must be thread-safe and must not block
    /// (drop, don't stall). A Finished event carries the leg's start stamp
    /// and duration; batched legs tile their unit's wall window. Trace ids
    /// are left zero: the job's telemetry scope (core/sweep_telemetry.h)
    /// stamps them. Empty = zero overhead on the leg hot path.
    std::function<void(const obs::LegEvent&)> onLegEvent;
    /// Fault-injection knob for the crash-handling negative control
    /// (ci.sh): when nonzero, the leg with canonical index failAtLeg-1
    /// deliberately fails a VC_CHECK before simulating, exercising the
    /// contract-hook → flight-recorder dump path end to end. 0 = off.
    std::uint32_t failAtLeg = 0;
};

/// Aggregated results of one (scheme, voltage) cell.
struct SweepCell {
    RunningStats normRuntime;  ///< runtime / defect-free runtime at same V
    RunningStats l2PerKilo;    ///< Fig. 11 metric
    RunningStats normEpi;      ///< EPI / conventional-760mV EPI
    std::uint32_t linkFailures = 0;
    std::uint32_t runs = 0;
    // Mean runtime-component fractions (busy / I-stall / D-stall / branch).
    RunningStats busyFrac;
    RunningStats ifetchFrac;
    RunningStats dmemFrac;
    RunningStats branchFrac;
};

struct SweepResult {
    /// cell key: (schemeKind, voltage mV rounded)
    std::map<std::pair<SchemeKind, int>, SweepCell> cells;
    /// Per-benchmark per-cell normalized EPI means (for geomean reporting).
    std::map<std::tuple<std::string, SchemeKind, int>, SweepCell> perBenchmark;
    /// Forensic distributions per cell, for legs that carried any (FFW
    /// window/recenter histograms, BBR chunk/displacement histograms, or a
    /// yield-loss cause). Deterministic integer counts, reduced in canonical
    /// leg order like everything else.
    std::map<std::pair<SchemeKind, int>, CellForensics> forensics;

    [[nodiscard]] const SweepCell& cell(SchemeKind kind, Voltage v) const;
};

/// Run the full grid. Deterministic for a fixed config: parallelism only
/// changes scheduling, never seeds or reduction order, so the result (and
/// its JSON export) is bit-identical across thread counts.
[[nodiscard]] SweepResult runSweep(const SweepConfig& config);

/// The scheme list of Figs. 10-12 (excluding the two baselines).
[[nodiscard]] std::vector<SchemeKind> paperSchemes();

/// The grid a config resolves to: an empty list means its default — all
/// ten benchmarks, paperSchemes(), Table II 560..400mV.
struct SweepGrid {
    std::vector<std::string> benchmarks;
    std::vector<SchemeKind> schemes;
    std::vector<OperatingPoint> points;
};
[[nodiscard]] SweepGrid sweepGrid(const SweepConfig& config);

namespace detail {

/// One Monte Carlo leg: indices into the plan's grid plus a trial.
struct SweepLeg {
    std::uint32_t benchmark = 0;
    std::uint32_t point = 0;
    std::uint32_t scheme = 0;
    std::uint32_t trial = 0;
};

/// Everything runSweep decides before any work runs.
struct SweepPlan {
    SweepGrid grid;
    /// Canonical order: benchmark, point, scheme, trial; the deterministic
    /// 8T scheme gets at most one trial.
    std::vector<SweepLeg> legs;
    /// chipSeeds[point][trial], shared by every scheme and benchmark so
    /// comparisons are paired.
    std::vector<std::vector<std::uint64_t>> chipSeeds;
    SystemConfig legTemplate; ///< systemTemplate under config.maxInstructions
    unsigned workers = 1;     ///< sweepWorkers(config.threads)
};

/// Most workers a sweep asking for `threads` runs (see SweepConfig::threads).
[[nodiscard]] unsigned sweepWorkers(unsigned threads);

/// Threads the process-lifetime executor pool has started so far: 0 until
/// a sweep first runs with more than one worker, then the most workers any
/// sweep has asked for.
[[nodiscard]] unsigned executorThreads();

[[nodiscard]] SweepPlan planSweep(const SweepConfig& config);

/// Fold one slot per plan leg, in canonical leg order.
[[nodiscard]] SweepResult reduceSweep(const SweepPlan& plan, std::span<const LegResult> slots);

/// Lane cap of one replay unit: `batchLanes` (0 = the default 32), lowered
/// until a benchmark's `replayableLegs` make at least two units per worker,
/// so a small job (a serve miss) spreads over every worker instead of
/// queueing behind one wide batch. Never below 1.
[[nodiscard]] std::size_t replayUnitCap(std::uint32_t batchLanes, std::size_t replayableLegs,
                                        unsigned workers);

/// Sizes of the fewest chunks of at most `cap` lanes that split a group of
/// `lanes` legs, as equal as possible (they differ by at most one, larger
/// first): 33 lanes at cap 32 become 17 + 16, not 32 + 1.
[[nodiscard]] std::vector<std::size_t> chunkSizes(std::size_t lanes, std::size_t cap);

} // namespace detail

} // namespace voltcache
