// Top-level system assembly: one simulated processor leg = (benchmark
// module, fault-tolerance scheme, DVFS operating point, fault-map seed).
// This is the unit of work the Monte Carlo sweep repeats (paper Section V).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compiler/passes.h"
#include "core/forensics.h"
#include "cpu/simulator.h"
#include "isa/module.h"
#include "linker/linker.h"
#include "power/dvfs.h"
#include "power/energy_model.h"
#include "schemes/factory.h"

namespace voltcache {

struct SystemConfig {
    CacheOrganization l1Org;          ///< Table I: 32KB/4-way/32B (both L1s)
    SchemeKind scheme = SchemeKind::DefectFree;
    OperatingPoint op = DvfsTable::vccminBaseline();
    std::uint64_t faultMapSeed = 1;   ///< same seed == same chip across schemes
    std::uint64_t maxInstructions = 0;
    double dramLatencyNs = 60.0;      ///< fixed wall-clock DRAM latency
    std::uint32_t maxBlockWords = kDefaultMaxBlockWords;
    /// Multiplier on the per-word fault probability used when drawing chip
    /// fault maps. 1.0 simulates the physical FailureModel; any other value
    /// is a deliberate corruption knob for the analytic cross-check's
    /// negative control (the check always predicts from the unscaled model).
    double faultRateScale = 1.0;
    EnergyParams energy = {};
    PipelineConfig pipeline = {};
    /// Trace observers attached to the simulator for this leg (multiplexed:
    /// all of them see every instruction / data access). Raw pointers — the
    /// caller keeps them alive across simulateSystem. Meant for single-leg
    /// runs (CLI `stats`, analyses); leave empty in parallel sweeps unless
    /// the observers are thread-safe.
    std::vector<TraceObserver*> observers;
};

struct SystemResult {
    bool linkFailed = false; ///< BBR could not place the binary (yield loss)
    RunStats run;
    LinkStats linkStats;
    L1Stats icacheStats;
    L1Stats dcacheStats;
    double epi = 0.0;            ///< joules per instruction
    double runtimeSeconds = 0.0; ///< cycles / core frequency
    EnergyBreakdown energyBreakdown;
    std::int32_t checksum = 0;   ///< r1 at Halt — functional-correctness witness
    LegForensics forensics;      ///< per-leg distributions for the sweep report
};

namespace detail {
struct LegFaultMaps;
}

/// Simulate one leg. `module` is the untransformed program (what baseline
/// schemes run); `bbrModule` is its BBR-transformed twin (required when the
/// scheme needs BBR linking, ignored otherwise). `chipMaps`, when non-null,
/// is this chip's pre-drawn defective map pair (detail::generateChipFaultMaps
/// with the same seed/point) — the sweep shares it across the scheme legs of
/// one (point, trial) instead of re-drawing per leg; defect-free schemes
/// ignore it.
[[nodiscard]] SystemResult simulateSystem(const Module& module, const Module* bbrModule,
                                          const SystemConfig& config,
                                          const detail::LegFaultMaps* chipMaps = nullptr);

/// Convenience: dramLatencyNs converted to core cycles at frequency f.
[[nodiscard]] std::uint32_t dramLatencyCycles(double dramLatencyNs, Frequency f) noexcept;

namespace detail {

// Shared between simulateSystem and replayBatch (core/replay.h), so the
// two evaluation paths cannot drift: the fault-map draw order, the final
// stat reconciliation, the energy accounting, and the metrics published
// per leg are one implementation each.

struct LegFaultMaps {
    FaultMap dcache;
    FaultMap icache;
};

/// Whether `kind` models a defect-free array (clean fault maps regardless
/// of the operating point).
[[nodiscard]] constexpr bool schemeIsDefectFree(SchemeKind kind) noexcept {
    return kind == SchemeKind::DefectFree || kind == SchemeKind::Conventional760 ||
           kind == SchemeKind::Robust8T;
}

/// Draw the chip's two defective fault maps from the seed at the configured
/// DVFS point (D-cache first, then I-cache) — the same pair for every
/// defect-tolerant scheme leg on that chip, so the sweep can generate it
/// once per (point, trial) and share it across schemes.
[[nodiscard]] LegFaultMaps generateChipFaultMaps(const SystemConfig& config);

/// Batched form: draw one chip per seed at `config`'s operating point, in
/// one pass per bit plane (all D-cache maps, then all I-cache maps, each
/// chip's RNG stream continuing across the planes). Element i is
/// byte-identical to generateChipFaultMaps(config with faultMapSeed =
/// seeds[i]) — the batch only amortizes the model evaluation and the map
/// arena, never the per-chip draw sequence.
[[nodiscard]] std::vector<LegFaultMaps> generateChipFaultMapsBatch(
    const SystemConfig& config, std::span<const std::uint64_t> seeds);

/// The maps one leg actually runs against: the chip maps for
/// defect-tolerant schemes, clean maps for defect-free kinds.
[[nodiscard]] LegFaultMaps generateLegFaultMaps(const SystemConfig& config);

/// Absorb the leg's stat structs into the global metrics registry.
void publishLegMetrics(const SystemConfig& config, const SystemResult& result);

/// Fill the scheme/energy/runtime tail of a SystemResult (run + checksum +
/// linkStats already set), harvest its forensic distributions from the
/// fault maps and scheme state, and publish its metrics.
void finalizeLegResult(const SystemConfig& config, const SchemePair& pair,
                       const LegFaultMaps& maps, SystemResult& result);

} // namespace detail

} // namespace voltcache
