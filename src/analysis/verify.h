// Static verification inside link(): attachStaticVerifier arms the linker
// to prove the BBR placement of the image it emits, and linkVerified links
// with that proof, so the Monte Carlo legs count a disproved placement as a
// yield loss. `voltcache verify` runs lint, link and provePlacement as
// separate steps instead, to report each.
#pragma once

#include "analysis/placement_prover.h"
#include "isa/module.h"
#include "linker/linker.h"

namespace voltcache::analysis {

/// Arm `options` so link() statically proves the placement of the image it
/// just emitted (against options.icacheFaultMap) and throws LinkError with
/// per-path diagnostics on failure. Requires bbrPlacement with a fault map;
/// `module` (optional, must outlive the link call) labels diagnostics.
void attachStaticVerifier(LinkOptions& options, const Module* module = nullptr);

/// link() + static placement proof in one call. On a placement the prover
/// rejects, throws LinkError (so Monte Carlo yield-loss accounting treats a
/// disproved placement exactly like an unplaceable one).
[[nodiscard]] LinkOutput linkVerified(const Module& module, LinkOptions options);

} // namespace voltcache::analysis
