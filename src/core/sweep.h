// Monte Carlo evaluation sweep (paper Section V): for every (benchmark,
// scheme, DVFS operating point), simulate several chips (fault-map seeds)
// and aggregate the Fig. 10 / Fig. 11 / Fig. 12 metrics:
//   * runtime normalized to the defect-free baseline at the same voltage,
//   * L2 accesses per 1000 instructions,
//   * EPI normalized to the conventional cache pinned at Vccmin = 760mV.
// The same seed produces the same fault maps for every scheme, so schemes
// are compared on identical chips (paired samples).
//
// Execution model: the grid is flattened into (benchmark, point, scheme,
// trial) legs. Per-benchmark artifacts (built module, BBR twin, the 760mV
// reference run, per-point defect-free runs) are prepared once in shared
// immutable contexts; then N workers pull legs off an atomic queue and
// write each leg's metrics into a pre-sized slot. The final reduction walks
// the slots in canonical leg order, so the aggregated result — and its JSON
// export — is bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "core/system.h"
#include "obs/progress.h"
#include "obs/trace_context.h"
#include "workload/workload.h"

namespace voltcache {

/// One progress tick of runSweep (defined in obs/progress.h so observers
/// below core can consume it as is).
using SweepProgress = obs::SweepProgress;

/// One leg lifecycle transition, delivered to SweepConfig::onLegEvent.
/// Enqueued events fire from the coordinating thread after the grid is
/// flattened (before any leg runs); Started/Finished fire concurrently from
/// worker threads, so the callback must be thread-safe and cheap — the
/// telemetry journal pushes into per-worker SPSC rings (obs/export/journal).
struct SweepLegEvent {
    enum class Phase : std::uint8_t { Enqueued, Started, Finished };

    Phase phase = Phase::Enqueued;
    std::size_t leg = 0;           ///< canonical leg index
    unsigned worker = 0;           ///< dense worker id; 0 for Enqueued events
    std::string_view benchmark;    ///< valid only for the callback's duration
    SchemeKind scheme = SchemeKind::DefectFree;
    int voltageMv = 0;
    std::uint32_t trial = 0;
    bool replayed = false;         ///< served by the trace-replay fast path
    bool cached = false;           ///< served from the result store (no simulation)
    std::uint64_t durationNs = 0;  ///< Finished only
    bool linkFailed = false;       ///< Finished only
    LinkFailCause failCause = LinkFailCause::None; ///< Finished only
    /// Owning job's trace context (SweepConfig::trace); zero when the sweep
    /// is untraced. spanId is the leg's deterministic child span —
    /// obs::childSpanId(config.trace, leg index) — so a replayed job
    /// reproduces the identical span tree.
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
    std::uint64_t spanId = 0;
};

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
/// every freshly simulated leg. Both run concurrently from sweep workers
/// and must be thread-safe.
class LegResultSource {
public:
    virtual ~LegResultSource() = default;
    virtual bool lookup(const Digest256& key, LegResult& out) = 0;
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
    /// Worker threads; 0 = hardware concurrency. Clamped to the number of
    /// schedulable work units (batches plus single legs — not benchmarks),
    /// so many-core hosts stay busy to the end.
    unsigned threads = 0;
    SystemConfig systemTemplate = {};       ///< org / energy / pipeline knobs
    /// Record-once / replay-many fast path: each benchmark context records
    /// one architectural trace per layout (plain + BBR twin) and every trial
    /// leg replays it through the trial's fault maps and scheme state.
    /// Results are bit-identical to execution-driven legs (core/replay.h);
    /// `--no-replay` / false falls back to full execution. Automatically
    /// disabled when systemTemplate.observers is non-empty (observers must
    /// see real execution) or when a trace overflows traceByteCap.
    bool useReplay = true;
    /// Per-trace payload cap in bytes; an overflowing benchmark logs once
    /// and runs execution-driven instead of holding an unbounded trace.
    std::uint64_t traceByteCap = 256ull << 20;
    /// Cap on lanes (trials) per batch; 0 picks the engine default (32).
    /// The replayable legs of one (benchmark, point, layout) group stream
    /// one decoded tape through up to this many trials at once
    /// (core/replay.h replayBatch); results are byte-identical for every
    /// cap, 1 included. Execution-driven legs are never batched.
    /// Smaller batches trade decode amortization for scheduling grains and
    /// a smaller resident state footprint (~200KB per lane: two tag
    /// arrays, scheme state, L2 counters, pipeline scoreboard).
    std::uint32_t batchLanes = 0;
    /// Content-addressed result source (`voltcache serve`'s store). When
    /// set, every leg's digest is probed before phase 1 commits to any
    /// heavy work: hits skip record/replay/execution entirely (benchmarks
    /// whose legs all hit never even record their traces), misses simulate
    /// as usual and populate the source. Cached legs feed the reduction the
    /// exact slots a cold run would have produced, so the sweep JSON stays
    /// byte-identical. Ignored when observers are attached (observers must
    /// watch real execution). The source outlives the call; nullptr = off.
    LegResultSource* resultSource = nullptr;
    /// Invoked after each benchmark's last leg completes (boundary ticks)
    /// and on leg completion at most every ~200ms (leg ticks), serialized
    /// under the progress lock (safe to print / write from). Empty = no
    /// reporting. Progress observation never changes the sweep result or
    /// its JSON export.
    std::function<void(const SweepProgress&)> onProgress;
    /// Leg lifecycle hook (telemetry journal). Enqueued fires from the
    /// coordinator; Started/Finished fire concurrently from workers — the
    /// callback must be thread-safe and must not block (drop, don't stall).
    /// Empty = zero overhead on the leg hot path.
    std::function<void(const SweepLegEvent&)> onLegEvent;
    /// Owning job's trace context (obs/trace_context.h). When valid, every
    /// SweepLegEvent carries it plus the leg's deterministic child span id,
    /// and finished legs are recorded into the JobTraceStore when that job
    /// is collecting. Purely observational: tracing never disables replay,
    /// batching, or the result store, and never touches the reduction — the
    /// sweep JSON stays byte-identical with tracing on or off.
    obs::TraceContext trace;
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

} // namespace voltcache
