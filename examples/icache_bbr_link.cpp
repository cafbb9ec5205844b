// BBR link explorer: run the paper's Section IV-B tool chain on one
// benchmark and one chip — code transformations (Fig. 8), Algorithm 1
// placement against the I-cache fault map, and the placement verifier —
// then print a linker map excerpt and a disassembly sample.
//
//   $ ./icache_bbr_link [benchmark] [seed] [voltage_mV]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/placement_prover.h"
#include "compiler/passes.h"
#include "isa/disasm.h"
#include "linker/linker.h"
#include "power/dvfs.h"
#include "workload/workload.h"

using namespace voltcache;

int main(int argc, char** argv) {
    const std::string benchmark = argc > 1 ? argv[1] : "basicmath";
    const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 1;
    const double mv = argc > 3 ? std::strtod(argv[3], nullptr) : 400.0;

    Module module = buildBenchmark(benchmark, WorkloadScale::Tiny);
    const std::uint32_t before = module.totalCodeWords();
    const TransformStats transforms = applyBbrTransforms(module);
    std::printf("BBR code transformation of '%s':\n", benchmark.c_str());
    std::printf("  jumps inserted at fall-throughs: %u\n", transforms.jumpsInserted);
    std::printf("  oversized blocks broken: %u (+%u pieces)\n", transforms.blocksBroken,
                transforms.piecesCreated);
    std::printf("  literal-pool slots moved into blocks: %u\n", transforms.literalsMoved);
    std::printf("  code size: %u -> %u words\n\n", before, module.totalCodeWords());

    const FaultMapGenerator generator;
    Rng rng(seed);
    const Voltage v = Voltage::fromMillivolts(mv);
    const FaultMap map = generator.generate(rng, v, 1024, 8);
    std::printf("chip seed %llu at %.0fmV: %u of 8192 I-cache words defective (%.1f%%)\n",
                static_cast<unsigned long long>(seed), mv, map.totalFaultyWords(),
                100.0 * map.totalFaultyWords() / map.totalWords());

    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &map;
    try {
        const LinkOutput out = link(module, options);
        std::printf("placed %u blocks, %u gap words inserted, image %u words "
                    "(largest block %u words)\n",
                    out.stats.blocksPlaced, out.stats.gapWords, out.stats.imageWords,
                    out.stats.largestBlockWords);
        std::printf("placement violations (defective words occupied): %u — must be 0\n",
                    countPlacementViolations(out.image, map));

        // The static prover (`voltcache verify`) decides the same invariant over
        // the image CFG — reachable words only, with per-path diagnostics.
        const analysis::PlacementProof proof =
            analysis::provePlacement(out.image, map, &module);
        std::fputs(analysis::formatProof(proof).c_str(), stdout);
        std::printf("static proof: %s — %u reachable words, %u dead words\n\n",
                    proof.verified ? "VERIFIED" : "REJECTED", proof.reachableWords,
                    proof.deadWords);
        if (!proof.verified) return 1;

        std::printf("linker map (first 12 blocks):\n");
        std::printf("  %-10s %-8s %-6s %s\n", "address", "cacheword", "size", "block");
        for (std::size_t i = 0; i < out.image.placements().size() && i < 12; ++i) {
            const auto& p = out.image.placements()[i];
            const auto& fn = module.functions[p.functionIndex];
            std::printf("  0x%08x %-8u %-6u %s:%s\n", p.byteAddr, (p.byteAddr / 4) % 8192,
                        p.sizeWords(), fn.name.c_str(), fn.blocks[p.blockIndex].label.c_str());
        }
    } catch (const LinkError& e) {
        std::printf("placement FAILED: %s\n(counted as a yield loss in the Monte Carlo "
                    "harness)\n",
                    e.what());
        return 1;
    }

    std::printf("\ntransformed code sample (first 30 lines of the listing):\n");
    const std::string listing = disassemble(module);
    std::size_t pos = 0;
    for (int line = 0; line < 30 && pos < listing.size(); ++line) {
        const std::size_t next = listing.find('\n', pos);
        std::printf("%s\n", listing.substr(pos, next - pos).c_str());
        if (next == std::string::npos) break;
        pos = next + 1;
    }
    return 0;
}
