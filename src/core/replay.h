// Record-once / replay-many Monte Carlo evaluation.
//
// A sweep leg's fault map and scheme change *timing*, never architectural
// values, so the logical access stream of a benchmark is invariant across
// trials at a fixed code layout. One execution-driven run per (benchmark,
// layout) records an ArchTrace (cpu/arch_trace.h); every subsequent trial
// streams that trace through the trial's fault maps, scheme state, L2 model
// and energy accounting via the shared timing step (timing::issueOne in
// cpu/timing_kernel.h) — skipping functional execution, memory, and (for
// fixed layouts) the branch predictor. Results are bit-identical to
// simulateSystem because the timing code is the same template instantiated
// over a different Driver.
//
// Two recorded layouts cover all schemes:
//   * plain — the untransformed module, conventionally linked; every
//     non-BBR scheme runs this exact image, so recorded predictor verdicts
//     are replayed as bits (the predictor is pc-indexed and layout-bound);
//   * bbr — the BBR-transformed twin, conventionally linked. A BBR trial
//     places blocks around the trial's I-cache faults, so replay translates
//     recording addresses section-by-section onto the trial layout and runs
//     a live BranchPredictor over the translated stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/system.h"
#include "cpu/arch_trace.h"
#include "linker/linker.h"

namespace voltcache {

/// One recorded (trace, layout) pair. The image is the layout every address
/// in the trace refers to; replay fetches decoded instructions from it.
///
/// The compact delta/varint ArchTrace is deliberately the form replay walks
/// per batch: a Tiny-scale trace is a few tens of KB and stays resident in
/// the host's L1/L2 next to the simulated tag arrays. A pre-decoded flat
/// record stream (12 B/instruction) was measured slower end-to-end — the
/// decode ALU it saves is hidden by the host's out-of-order core, while its
/// ~600 KB/leg of streaming reads evict the timing model's working set.
struct ReplaySource {
    ArchTrace trace;
    LinkOutput link;
};

/// Per-benchmark recorded sources, shared read-only by all sweep workers.
struct TraceCache {
    std::unique_ptr<const ReplaySource> plain; ///< untransformed module
    std::unique_ptr<const ReplaySource> bbr;   ///< BBR twin (when any scheme needs it)

    [[nodiscard]] bool canReplay(SchemeKind kind) const noexcept {
        return (schemeNeedsBbrLinking(kind) ? bbr : plain) != nullptr;
    }
    [[nodiscard]] std::uint64_t residentBytes() const noexcept {
        return (plain != nullptr ? plain->trace.residentBytes() : 0) +
               (bbr != nullptr ? bbr->trace.residentBytes() : 0);
    }
};

/// Run one execution-driven leg of `module` under `recordConfig` with a
/// TraceRecorder attached and return the sealed trace plus a fresh
/// deterministic link of the same module (identical layout to the recording
/// run's). `recordConfig` must use a conventionally-linked scheme; its
/// result lands in `outResult` either way. Returns nullptr when the trace
/// exceeded `byteCap` — the caller falls back to execution-driven legs.
[[nodiscard]] std::unique_ptr<const ReplaySource> recordReplaySource(
    const Module& module, const SystemConfig& recordConfig, std::uint64_t byteCap,
    SystemResult& outResult);

/// Word-granular map from a recording image's addresses onto a trial
/// image's: both must place the same blocks/pools in the same order (same
/// module, different layout). Unplaced (gap) words map to 0xFFFFFFFF.
[[nodiscard]] std::vector<std::uint32_t> buildAddressTranslation(const Image& recording,
                                                                 const Image& trial);

/// One lane of a TrialBatch: the per-trial inputs of one sweep leg and, on
/// return from replayBatch, its result. `chipMaps` has simulateSystem's
/// sharing semantics (core/system.h); `result` is byte-identical to
/// `simulateSystem(module, bbrModule, config, chipMaps)` for the recorded
/// module. A one-lane batch is the per-leg replay engine.
struct BatchLane {
    SystemConfig config;
    const detail::LegFaultMaps* chipMaps = nullptr;
    SystemResult result;
};

/// Stream one sealed ArchTrace through many fault maps simultaneously: the
/// trace is decoded once per chunk into a flat pre-lowered tape, then every
/// lane's timing state — scheme/tag arrays, L2 counters, energy inputs,
/// pipeline scoreboard — advances through that chunk before the next one is
/// decoded, so the decode cost is amortized across the batch and the tape
/// stays cache-hot. Every lane advances op-major: each tape op steps every
/// lane of each scheme group before the next op (a BBR lane on its own
/// translated layout, under its own predictor). All lanes must share the
/// benchmark (the trace) and layout kind: every `config.scheme` needs BBR
/// linking (each lane then links/translates/predicts per trial; LinkError
/// folds into linkFailed yield loss, as in execution) or none does, and
/// every `config.maxInstructions` must equal the recording's. `cache` must
/// hold that layout's recording, and every `config.observers` must be empty
/// (observers see no replayed run). Per-lane results are byte-identical to
/// simulateSystem — every lane drives the same timing::issueOne step as
/// execution, fed by a tape driver instead of the simulator.
void replayBatch(const Module* bbrModule, const TraceCache& cache,
                 std::span<BatchLane> lanes);

/// Free the L2 models replayBatch keeps for reuse between batches (a ~400KB
/// tag store each) beyond the most that were in use at once since the last
/// call. A sweep calls it when it finishes: repeated sweeps of one shape
/// keep reusing their models, and a small job after a large one returns the
/// surplus to the allocator.
void trimReplayCaches();

} // namespace voltcache
