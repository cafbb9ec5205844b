#include "linker/linker.h"

#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace voltcache {

const char* linkFailCauseName(LinkFailCause cause) noexcept {
    switch (cause) {
        case LinkFailCause::None: return "none";
        case LinkFailCause::NoChunk: return "no_chunk";
        case LinkFailCause::LiteralReach: return "literal_reach";
        case LinkFailCause::RelocOverflow: return "reloc_overflow";
        case LinkFailCause::Shape: return "shape";
        case LinkFailCause::Verifier: return "verifier";
        case LinkFailCause::Other: return "other";
    }
    return "other";
}

namespace {

class LinkContext {
public:
    LinkContext(const Module& module, const LinkOptions& options)
        : module_(module), options_(options) {
        if (options_.bbrPlacement) {
            if (options_.icacheFaultMap == nullptr) {
                throw LinkError("BBR placement requires an I-cache fault map",
                                LinkFailCause::Shape);
            }
            cacheWords_ = options_.icacheFaultMap->totalWords();
            scanWords_ = obs::MetricsRegistry::global().histogram("link.scan_words");
        }
    }

    LinkOutput run() {
        checkShape();
        place();
        return emit();
    }

private:
    /// Outcome of one first-fit scan, for the placement stats/trace.
    struct Fit {
        std::uint32_t word = 0;     ///< placement (flat word address)
        std::uint32_t restarts = 0; ///< scans restarted past a defective word
        std::uint32_t wraps = 0;    ///< cache-size boundaries crossed
    };

    /// First word address >= start where `size` consecutive words all map
    /// to fault-free cache words (Algorithm 1's while loop; the modular
    /// cacheAddr computation makes the scan wrap around the cache).
    Fit findFit(std::uint32_t startWord, std::uint32_t size) const {
        if (!options_.bbrPlacement || size == 0) return Fit{startWord, 0, 0};
        const FaultMap& map = *options_.icacheFaultMap;
        if (size > cacheWords_) {
            throw LinkError("basic block of " + std::to_string(size) +
                            " words exceeds the instruction cache (" +
                            std::to_string(cacheWords_) + " words)",
                            LinkFailCause::NoChunk);
        }
        std::uint32_t word = startWord;
        std::uint32_t restarts = 0;
        while (true) {
            if (word - startWord > cacheWords_ + size) {
                if (obs::instantEventsOn()) {
                    obs::traceInstant("link.fail", "linker",
                                      {{"size", size},
                                       {"scanned", word - startWord},
                                       {"restarts", restarts}});
                }
                obs::MetricsRegistry::global().add("link.failures", {}, 1);
                throw LinkError("no fault-free chunk of " + std::to_string(size) +
                                " words: placement failed (yield loss)",
                                LinkFailCause::NoChunk);
            }
            bool fits = true;
            for (std::uint32_t j = 0; j < size; ++j) {
                if (map.isFaultyFlat((word + j) % cacheWords_)) {
                    // Restart just past the defective word.
                    word = word + j + 1;
                    ++restarts;
                    fits = false;
                    break;
                }
            }
            if (fits) {
                // Boundaries of the cache-sized window crossed between the
                // scan start and the placed block's last word.
                const std::uint32_t wraps =
                    (word + size - 1) / cacheWords_ - startWord / cacheWords_;
                return Fit{word, restarts, wraps};
            }
        }
    }

    void checkShape() const {
        for (const auto& fn : module_.functions) {
            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                const auto& block = fn.blocks[b];
                const bool last = b + 1 == fn.blocks.size();
                if (!block.hasFallthrough()) continue;
                if (options_.bbrPlacement) {
                    throw LinkError("BBR placement on fall-through block '" + fn.name + ":" +
                                    block.label +
                                    "': run the BBR code transformations first",
                                    LinkFailCause::Shape);
                }
                if (last) {
                    throw LinkError("function '" + fn.name +
                                    "' falls through past its last block",
                                    LinkFailCause::Shape);
                }
                if (!block.literalPool.empty()) {
                    throw LinkError("block '" + fn.name + ":" + block.label +
                                    "' falls through into its own literal pool",
                                    LinkFailCause::Shape);
                }
            }
        }
    }

    void place() {
        std::uint32_t wordPtr = options_.codeBase / 4;
        const std::uint32_t firstWord = wordPtr;
        blockAddr_.resize(module_.functions.size());
        poolAddr_.resize(module_.functions.size(), 0);
        for (std::size_t f = 0; f < module_.functions.size(); ++f) {
            const auto& fn = module_.functions[f];
            blockAddr_[f].resize(fn.blocks.size());
            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                const std::uint32_t size = fn.blocks[b].sizeWords();
                const Fit fit = findFit(wordPtr, size);
                notePlacement(fit, wordPtr, size);
                stats_.gapWords += fit.word - wordPtr;
                blockAddr_[f][b] = fit.word * 4;
                wordPtr = fit.word + size;
                ++stats_.blocksPlaced;
                stats_.codeWords += size;
                stats_.largestBlockWords = std::max(stats_.largestBlockWords, size);
            }
            if (!fn.sharedLiteralPool.empty()) {
                const auto size = static_cast<std::uint32_t>(fn.sharedLiteralPool.size());
                const Fit fit = findFit(wordPtr, size);
                notePlacement(fit, wordPtr, size);
                stats_.gapWords += fit.word - wordPtr;
                poolAddr_[f] = fit.word * 4;
                wordPtr = fit.word + size;
                stats_.codeWords += size;
            }
        }
        stats_.imageWords = wordPtr - firstWord;
    }

    /// Fold one first-fit outcome into stats, the scan-length histogram,
    /// and (when a sink is attached) the trace.
    void notePlacement(const Fit& fit, std::uint32_t startWord, std::uint32_t size) {
        if (!options_.bbrPlacement) return;
        stats_.scanRestarts += fit.restarts;
        stats_.wrapArounds += fit.wraps;
        const std::uint32_t displacement = fit.word - startWord;
        const std::size_t bucket =
            displacement == 0
                ? 0
                : std::min<std::size_t>(std::bit_width(displacement), stats_.scanHist.size() - 1);
        ++stats_.scanHist[bucket];
        scanWords_.observe(displacement);
        if (obs::instantEventsOn()) {
            obs::traceInstant("link.place", "linker",
                              {{"block", stats_.blocksPlaced},
                               {"size", size},
                               {"scanned", fit.word - startWord},
                               {"restarts", fit.restarts},
                               {"wraps", fit.wraps}});
        }
    }

    std::uint32_t resolveTarget(std::size_t f, const Relocation& reloc,
                                std::uint32_t blockByteAddr, std::uint32_t instWordIndex,
                                const BasicBlock& block) const {
        switch (reloc.kind) {
            case RelocKind::BlockTarget: return blockAddr_[f][reloc.targetBlock];
            case RelocKind::FunctionTarget: {
                for (std::size_t g = 0; g < module_.functions.size(); ++g) {
                    if (module_.functions[g].name == reloc.targetFunction) {
                        return blockAddr_[g][0];
                    }
                }
                throw LinkError("unresolved call to '" + reloc.targetFunction + "'",
                                LinkFailCause::Shape);
            }
            case RelocKind::SharedLiteral: return poolAddr_[f] + reloc.literalIndex * 4;
            case RelocKind::BlockLiteral:
                return blockByteAddr +
                       static_cast<std::uint32_t>(block.insts.size()) * 4 +
                       reloc.literalIndex * 4;
        }
        VC_ENSURES(false);
        return instWordIndex; // unreachable
    }

    LinkOutput emit() {
        Image image(options_.codeBase, stats_.imageWords);
        for (std::size_t f = 0; f < module_.functions.size(); ++f) {
            const auto& fn = module_.functions[f];
            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                const auto& block = fn.blocks[b];
                const std::uint32_t blockByte = blockAddr_[f][b];
                for (std::size_t i = 0; i < block.insts.size(); ++i) {
                    const std::uint32_t instAddr =
                        blockByte + static_cast<std::uint32_t>(i) * 4;
                    Instruction inst = block.insts[i];
                    if (const auto* reloc = block.relocFor(static_cast<std::uint32_t>(i))) {
                        const std::uint32_t target = resolveTarget(
                            f, *reloc, blockByte, static_cast<std::uint32_t>(i), block);
                        const auto delta =
                            (static_cast<std::int64_t>(target) - instAddr) / 4;
                        inst.imm = static_cast<std::int32_t>(delta);
                        if (inst.op == Opcode::Ldl &&
                            static_cast<std::uint32_t>(std::abs(inst.imm)) >
                                options_.literalReachWords) {
                            throw LinkError("literal out of PC-relative reach in '" +
                                            fn.name + ":" + block.label +
                                            "': run MoveLiteralPools",
                                            LinkFailCause::LiteralReach);
                        }
                    }
                    try {
                        (void)encode(inst); // displacement range check
                    } catch (const EncodingError& e) {
                        throw LinkError("relocation overflow in '" + fn.name + ":" +
                                        block.label + "': " + e.what(),
                                        LinkFailCause::RelocOverflow);
                    }
                    ImageWord& word = image.at(instAddr);
                    word.kind = ImageWord::Kind::Instruction;
                    word.inst = inst;
                }
                for (std::size_t l = 0; l < block.literalPool.size(); ++l) {
                    ImageWord& word =
                        image.at(blockByte + static_cast<std::uint32_t>(block.insts.size() + l) * 4);
                    word.kind = ImageWord::Kind::Literal;
                    word.value = block.literalPool[l];
                }
                PlacedBlock placement;
                placement.functionIndex = static_cast<std::uint32_t>(f);
                placement.blockIndex = static_cast<std::uint32_t>(b);
                placement.byteAddr = blockByte;
                placement.codeWords = static_cast<std::uint32_t>(block.insts.size());
                placement.literalWords = static_cast<std::uint32_t>(block.literalPool.size());
                image.addPlacement(placement);
            }
            for (std::size_t l = 0; l < fn.sharedLiteralPool.size(); ++l) {
                ImageWord& word = image.at(poolAddr_[f] + static_cast<std::uint32_t>(l) * 4);
                word.kind = ImageWord::Kind::Literal;
                word.value = fn.sharedLiteralPool[l];
            }
            if (!fn.sharedLiteralPool.empty()) {
                PlacedPool pool;
                pool.functionIndex = static_cast<std::uint32_t>(f);
                pool.byteAddr = poolAddr_[f];
                pool.sizeWords = static_cast<std::uint32_t>(fn.sharedLiteralPool.size());
                image.addPoolPlacement(pool);
            }
        }
        for (std::size_t f = 0; f < module_.functions.size(); ++f) {
            if (module_.functions[f].name == module_.entryFunction) {
                image.setEntryAddr(blockAddr_[f][0]);
            }
        }
        return LinkOutput{std::move(image), stats_};
    }

    const Module& module_;
    const LinkOptions& options_;
    obs::Histogram scanWords_; ///< "link.scan_words" (BBR placement only)
    std::uint32_t cacheWords_ = 0;
    std::vector<std::vector<std::uint32_t>> blockAddr_;
    std::vector<std::uint32_t> poolAddr_;
    LinkStats stats_;
};

} // namespace

LinkOutput link(const Module& module, const LinkOptions& options) {
    const obs::Span span("link");
    module.validate();
    LinkOutput out = LinkContext(module, options).run();
    if (options.postLinkVerifier) options.postLinkVerifier(out.image);
    // Decode eagerly: the image is final here, so the simulator's fetch fast
    // path never rebuilds mid-run (and the image is then share-safe).
    out.image.warmDecodeCache();
    return out;
}

std::uint32_t countPlacementViolations(const Image& image, const FaultMap& icacheFaultMap) {
    const std::uint32_t cacheWords = icacheFaultMap.totalWords();
    std::uint32_t violations = 0;
    for (std::uint32_t addr = image.baseAddr(); addr < image.limitAddr(); addr += 4) {
        if (image.at(addr).kind == ImageWord::Kind::Gap) continue;
        if (icacheFaultMap.isFaultyFlat((addr / 4) % cacheWords)) ++violations;
    }
    return violations;
}

} // namespace voltcache
