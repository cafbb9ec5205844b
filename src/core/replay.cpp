#include "core/replay.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <utility>

#include "analysis/verify.h"
#include "common/contracts.h"
#include "cpu/branch_predictor.h"
#include "cpu/timing_kernel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace voltcache {

namespace {

constexpr std::uint32_t kUnmappedWord = 0xFFFFFFFFU;

/// Recording-layout -> trial-layout address mapping of one BBR lane's
/// TapeDriver. A null table is the identity (non-BBR legs run the recorded
/// layout itself).
struct AddressTranslator {
    const std::uint32_t* table = nullptr;
    std::uint32_t tableWords = 0;
    std::uint32_t base = 0;

    [[nodiscard]] std::uint32_t translate(std::uint32_t recAddr) const {
        if (table == nullptr) return recAddr;
        const std::uint32_t word = (recAddr - base) / 4;
        VC_EXPECTS(word < tableWords);
        const std::uint32_t trialAddr = table[word];
        VC_CHECK(trialAddr != kUnmappedWord);
        return trialAddr;
    }
    /// Data addresses are translated only when they land inside the
    /// recording image (literal reads through computed pointers); heap,
    /// stack, and globals live outside the code image in both layouts.
    [[nodiscard]] std::uint32_t translateData(std::uint32_t recAddr) const {
        if (table == nullptr) return recAddr;
        const std::uint32_t word = (recAddr - base) / 4;
        if (word >= tableWords) return recAddr;
        const std::uint32_t trialAddr = table[word];
        VC_CHECK(trialAddr != kUnmappedWord);
        return trialAddr;
    }
};

// ---------------------------------------------------------------------------
// Batched multi-map replay: decode the trace once per chunk into a flat
// pre-lowered tape, then advance every lane of the TrialBatch through the
// chunk before decoding the next one. The varint/zigzag cursor work and the
// recording-image position walk are paid once per batch instead of once per
// trial, and the per-lane inner loop degenerates to flat tape loads feeding
// the shared timing kernel.
// ---------------------------------------------------------------------------

/// Issue-stage shape of a tape op: which case of the timing kernel's
/// execute switch it takes. Pre-lowered once per batch so the op-major
/// kernel dispatches on a dense byte instead of re-classifying the opcode
/// per (op, lane).
enum class OpClass : std::uint8_t { Alu, Lui, Load, Store, Jal, Jalr, Branch, Nop, Halt };

[[nodiscard]] constexpr OpClass opClassOf(Opcode op) noexcept {
    switch (op) {
        case Opcode::Nop: return OpClass::Nop;
        case Opcode::Halt: return OpClass::Halt;
        case Opcode::Lui: return OpClass::Lui;
        case Opcode::Lw:
        case Opcode::Ldl: return OpClass::Load;
        case Opcode::Sw: return OpClass::Store;
        case Opcode::Jal: return OpClass::Jal;
        case Opcode::Jalr: return OpClass::Jalr;
        default: return isConditionalBranch(op) ? OpClass::Branch : OpClass::Alu;
    }
}

/// One pre-lowered instruction of the recorded stream. `aux` is the one
/// recorded fact the opcode needs: the data address (Lw/Sw), the literal
/// address (Ldl), or the recording-layout control-flow target
/// (Jal/Jalr/conditional branch) — all in recording-layout coordinates, so
/// each lane applies its own translation (identity for plain lanes).
/// `cross` marks ops whose recording-layout pc enters a new 32B fetch block
/// — the I-cache access points, identical for every plain lane by
/// construction (BBR lanes run translated layouts and re-derive their own
/// crossings from the trial pc).
struct TapeOp {
    Instruction inst;
    std::uint32_t recPc = 0;
    std::uint32_t aux = 0;
    std::uint8_t taken = 0;   ///< recorded branch direction (1 for jumps)
    std::uint8_t correct = 0; ///< recorded predictor verdict
    OpClass cls = OpClass::Alu;
    std::uint8_t cross = 0;   ///< recording-layout fetch-block boundary
};

/// Tape chunk size in instructions. 256 ops of 20 bytes make a 5KB tape
/// that stays hot in the host's L1 while a batch's lanes take turns
/// replaying it; larger chunks amortize the per-lane state reload slightly
/// better but start evicting the lanes' tag arrays.
constexpr std::uint32_t kTapeChunkOps = 256;
static_assert(sizeof(TapeOp) == 20);

/// Decodes the recorded stream chunk-by-chunk: walks the recording image
/// from its entry point and pops the trace cursor's recorded facts, once
/// per batch for all of its lanes.
class TapeBuilder {
public:
    TapeBuilder(const Image& recording, const ArchTrace& trace)
        : code_(recording.decodedInstructions()),
          cursor_(trace),
          base_(recording.baseAddr()),
          recPc_(recording.entryAddr()),
          remaining_(trace.instructions()) {
        ip_ = code_ + (recPc_ - base_) / 4;
    }

    [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }
    [[nodiscard]] bool fullyConsumed() const noexcept { return cursor_.fullyConsumed(); }

    /// Decode up to `cap` instructions into `out`; returns the count.
    std::uint32_t fill(TapeOp* out, std::uint32_t cap) {
        std::uint32_t n = 0;
        while (n < cap && remaining_ != 0) {
            const Instruction inst = *ip_;
            TapeOp& op = out[n++];
            op.inst = inst;
            op.recPc = recPc_;
            op.aux = 0;
            op.taken = 0;
            op.correct = 0;
            op.cls = opClassOf(inst.op);
            const std::uint64_t fetchBlock = recPc_ / 32;
            op.cross = fetchBlock != lastFetchBlock_ ? 1 : 0;
            lastFetchBlock_ = fetchBlock;
            --remaining_;
            switch (inst.op) {
                case Opcode::Lw:
                case Opcode::Sw:
                    op.aux = cursor_.nextDataAddr();
                    step();
                    break;
                case Opcode::Ldl:
                    op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                    step();
                    break;
                case Opcode::Jal: {
                    const CfRecord cf = cursor_.nextCf();
                    op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                    op.taken = 1;
                    op.correct = cf.correct ? 1 : 0;
                    jumpTo(op.aux);
                    break;
                }
                case Opcode::Jalr: {
                    const CfRecord cf = cursor_.nextCf();
                    op.aux = cursor_.nextJalrTarget();
                    op.taken = 1;
                    op.correct = cf.correct ? 1 : 0;
                    jumpTo(op.aux);
                    break;
                }
                case Opcode::Halt:
                    break; // always the last recorded instruction; no step
                default:
                    if (isConditionalBranch(inst.op)) {
                        const CfRecord cf = cursor_.nextCf();
                        op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                        op.taken = cf.taken ? 1 : 0;
                        op.correct = cf.correct ? 1 : 0;
                        if (cf.taken) {
                            jumpTo(op.aux);
                        } else {
                            step();
                        }
                    } else {
                        step();
                    }
                    break;
            }
        }
        return n;
    }

private:
    void step() {
        recPc_ += 4;
        ++ip_;
    }
    void jumpTo(std::uint32_t target) {
        recPc_ = target;
        ip_ = code_ + (recPc_ - base_) / 4;
    }

    const Instruction* code_;
    const Instruction* ip_;
    ArchTrace::Cursor cursor_;
    std::uint32_t base_;
    std::uint32_t recPc_;
    std::uint64_t remaining_;
    // Mirrors PipelineState::lastFetchBlock's initial value so the decoded
    // crossing sequence equals what each lane's kernel walk would compute.
    std::uint64_t lastFetchBlock_ = ~std::uint64_t{0};
};

/// Tape-walking Driver for timing::runPipelineChunk. Every recorded fact is
/// a flat load from the pre-lowered tape; plain lanes (`kBbr == false`,
/// identity layout, replayed predictor verdicts) compile the translation
/// and the predictor away entirely, while BBR lanes carry their per-trial
/// translated pc and run a live predictor over the trial layout.
template <bool kBbr>
class TapeDriver {
public:
    TapeDriver(const AddressTranslator& xlate, BranchPredictor* predictor,
               std::uint32_t entryTrialPc)
        : xlate_(xlate), predictor_(predictor), trialPc_(entryTrialPc) {}

    void beginChunk(const TapeOp* ops, std::uint32_t count) {
        ops_ = ops;
        n_ = count;
        idx_ = 0;
    }

    [[nodiscard]] bool atEnd() const { return idx_ == n_; }
    [[nodiscard]] const Instruction& inst() const { return ops_[idx_].inst; }
    [[nodiscard]] std::uint32_t pc() const {
        if constexpr (kBbr) {
            return trialPc_;
        } else {
            return ops_[idx_].recPc;
        }
    }

    [[nodiscard]] std::uint32_t loadAddr() const { return translateData(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t literalAddr() const { return translate(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t storeAddr() const { return translateData(ops_[idx_].aux); }

    [[nodiscard]] bool condTaken() const { return ops_[idx_].taken != 0; }
    [[nodiscard]] std::uint32_t directTarget() const { return translate(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t jalrTarget() const { return translate(ops_[idx_].aux); }

    [[nodiscard]] bool resolveJump(std::uint32_t pc, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictJump(pc);
            return predictor_->resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/false);
        } else {
            (void)pc;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    [[nodiscard]] bool resolveReturn(std::uint32_t pc, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictReturn(pc);
            return predictor_->resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/true);
        } else {
            (void)pc;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    [[nodiscard]] bool resolveBranch(std::uint32_t pc, bool taken, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictBranch(pc);
            return predictor_->resolve(prediction, pc, taken, target,
                                       /*chargeMispredict=*/true);
        } else {
            (void)pc;
            (void)taken;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    void pushReturnAddress(std::uint32_t addr) {
        if constexpr (kBbr) predictor_->pushReturnAddress(addr);
    }

    // Architectural side effects: replay has no values to carry.
    void writeLui() {}
    void writeAlu() {}
    void writeLink() {}
    void writeLoad(std::uint32_t /*addr*/) {}
    void doStore(std::uint32_t /*addr*/) {}
    void notifyControlFlow(bool /*taken*/, std::uint32_t /*nextPc*/, bool /*correct*/) {}
    void notifyIssue() {}

    void stepFallthrough() {
        ++idx_;
        if constexpr (kBbr) trialPc_ += 4;
    }
    void stepBranch(bool taken, std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = taken ? target : trialPc_ + 4;
    }
    void stepJump(std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = target;
    }
    void stepJalr(std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = target;
    }

private:
    [[nodiscard]] std::uint32_t translate(std::uint32_t recAddr) const {
        if constexpr (kBbr) {
            return xlate_.translate(recAddr);
        } else {
            return recAddr;
        }
    }
    [[nodiscard]] std::uint32_t translateData(std::uint32_t recAddr) const {
        if constexpr (kBbr) {
            return xlate_.translateData(recAddr);
        } else {
            return recAddr;
        }
    }

    const TapeOp* ops_ = nullptr;
    std::uint32_t n_ = 0;
    std::uint32_t idx_ = 0;
    AddressTranslator xlate_;
    BranchPredictor* predictor_;
    std::uint32_t trialPc_;
};

// ---------------------------------------------------------------------------
// Op-major plain-lane kernel: the TrialBatch inner loop. The lane-major
// TapeDriver path above walks each lane through a whole chunk before
// switching lanes, so every data-dependent branch of the timing kernel (the
// execute switch, the stall checks, hit/miss paths) re-trains the host
// branch predictor on each lane's pass. Here the loops are inverted — for each tape op, a tight
// loop advances every lane — which makes all of those branches
// lane-coherent: the switch resolves once per op, and each in-loop branch
// sees the same op (and usually the same outcome) B times in a row.
//
// Because every plain lane replays the same recorded stream with identity
// translation and recorded verdicts, all stream-derived counters —
// instructions, loads, stores, branch mix, recorded mispredicts, fetch
// crossings — are lane-invariant: they are tallied ONCE per op into
// ChunkAggregates and added to each lane's RunStats at the chunk edge,
// instead of once per (op, lane).
//
// This mirrors timing_kernel.h's runPipelineChunk case for a TapeDriver
// with no predictor and identity translation; that function remains the
// normative copy of the timing semantics, and the replay-vs-execution
// byte-identity tests (tests/test_sweep_determinism.cpp, tests/test_replay.cpp,
// and the golden sweep JSON) enforce that the two never drift.
// ---------------------------------------------------------------------------

/// Stream-derived counters identical for every plain lane of one chunk.
struct ChunkAggregates {
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1dAccesses = 0;
    bool halted = false;
};

/// One plain lane as the op-major kernel sees it: timing state plus the
/// lane's concrete (devirtualized) schemes.
template <class ICacheT, class DCacheT>
struct PlainLaneRef {
    timing::PipelineState* st = nullptr;
    ICacheT* icache = nullptr;
    DCacheT* dcache = nullptr;
};

/// Advance every lane of one scheme-homogeneous plain group through one
/// decoded tape chunk. Per-lane semantics are exactly runPipelineChunk's:
/// same fetch/stall/issue/execute rules, same attribution, same order — only
/// the iteration order (op-major instead of lane-major) and the aggregation
/// of lane-invariant counters differ, neither of which is observable in the
/// per-lane result.
template <class ICacheT, class DCacheT>
void runTapeChunkPlain(const TapeOp* ops, std::uint32_t count,
                       PlainLaneRef<ICacheT, DCacheT>* lanes, std::size_t laneCount,
                       const PipelineConfig& config) {
    using timing::StallCause;
    if (laneCount == 0 || count == 0) return;
    if (!lanes[0].st->running) return; // Halt retired in an earlier chunk

    const std::uint32_t iOverhead = lanes[0].icache->latencyOverhead();
    const std::uint32_t iHitLatency = kL1HitLatencyCycles + iOverhead;
    const std::uint32_t takenBubble = config.takenBranchFetchBubble ? iHitLatency - 1 : 0;
    const std::uint32_t dOverhead = lanes[0].dcache->latencyOverhead();
    const std::uint64_t instrLimit =
        config.maxInstructions != 0 ? config.maxInstructions : ~std::uint64_t{0};
    // Lane-invariant by construction (all lanes issue the same stream).
    const std::uint64_t instrBase = lanes[0].st->stats.instructions;

    const auto advanceTo = [](timing::PipelineState& st, std::uint64_t targetCycle,
                              StallCause cause) {
        if (targetCycle <= st.cycle) return;
        st.stallCycles[static_cast<unsigned>(cause)] += targetCycle - st.cycle;
        st.cycle = targetCycle;
        st.slotsUsed = 0;
        st.memOpsThisCycle = 0;
        st.branchesThisCycle = 0;
    };
    const auto setRegTiming = [](timing::PipelineState& st, unsigned index,
                                 std::uint64_t readyCycle, bool fromLoad) {
        const unsigned slot = index == kZeroRegister ? kNumRegisters : index;
        st.regReady[slot] = readyCycle;
        st.regFromLoad[slot] = fromLoad;
    };

    ChunkAggregates agg;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (instrBase + agg.instructions >= instrLimit) break;
        const TapeOp op = ops[i];
        const std::uint8_t opFlags =
            timing::detail::kOpFlags[static_cast<unsigned>(op.inst.op)];
        const bool isMem = (opFlags & timing::detail::kIsMemory) != 0;
        const bool isCf = (opFlags & timing::detail::kIsControlFlow) != 0;
        const bool readsRs1 = (opFlags & timing::detail::kReadsRs1) != 0;
        const bool readsRs2 = (opFlags & timing::detail::kReadsRs2) != 0;

        // --- Instruction fetch: lane-invariant crossing, per-lane access. ---
        if (op.cross != 0) {
            ++agg.l1iAccesses;
            for (std::size_t l = 0; l < laneCount; ++l) {
                timing::PipelineState& st = *lanes[l].st;
                const AccessResult fetch = lanes[l].icache->fetch(op.recPc);
                st.stats.activity.l2Accesses += fetch.l2Reads;
                if (fetch.dram) ++st.stats.activity.dramAccesses;
                if (fetch.auxProbe) ++st.stats.activity.auxAccesses;
                if (!fetch.l1Hit) {
                    const std::uint64_t penalty = fetch.latencyCycles - iHitLatency;
                    if (st.cycle + penalty > st.frontendReady) {
                        st.frontendReady = st.cycle + penalty;
                        st.frontendCause = StallCause::IFetch;
                    }
                }
            }
        }
        ++agg.instructions;

        // The issue front shared by every op class: frontend drain, register
        // dependences, width/structural constraints — runPipelineChunk's
        // pre-execute sequence verbatim, on one lane.
        const auto issueFront = [&](timing::PipelineState& st) {
            advanceTo(st, st.frontendReady, st.frontendCause);
            const std::uint64_t ready1 = readsRs1 ? st.regReady[op.inst.rs1] : 0;
            const std::uint64_t ready2 = readsRs2 ? st.regReady[op.inst.rs2] : 0;
            const std::uint64_t ready = std::max(ready1, ready2);
            if (ready > st.cycle) [[unlikely]] {
                const bool fromLoad = ready1 >= ready2 ? st.regFromLoad[op.inst.rs1]
                                                       : st.regFromLoad[op.inst.rs2];
                advanceTo(st, ready, fromLoad ? StallCause::Dmem : StallCause::Exec);
            }
            if (st.slotsUsed >= config.issueWidth || (isMem && st.memOpsThisCycle >= 1) ||
                (isCf && st.branchesThisCycle >= 1)) {
                advanceTo(st, st.cycle + 1, StallCause::None);
            }
            if (isMem && config.dcachePortOccupancy) {
                const std::uint64_t portFree = st.dportBusyUntil;
                if (portFree > st.cycle) advanceTo(st, portFree, StallCause::Dmem);
                st.dportBusyUntil = st.cycle + 1 + dOverhead;
            }
            ++st.slotsUsed;
            if (isMem) ++st.memOpsThisCycle;
            if (isCf) ++st.branchesThisCycle;
        };

        switch (op.cls) {
            case OpClass::Nop:
                for (std::size_t l = 0; l < laneCount; ++l) issueFront(*lanes[l].st);
                break;
            case OpClass::Halt:
                agg.halted = true;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    issueFront(*lanes[l].st);
                    lanes[l].st->running = false;
                }
                break;
            case OpClass::Lui:
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    setRegTiming(st, op.inst.rd, st.cycle + 1, false);
                }
                break;
            case OpClass::Load:
                ++agg.loads;
                ++agg.l1dAccesses;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    const AccessResult res = lanes[l].dcache->read(op.aux);
                    st.stats.activity.l2Accesses += res.l2Reads;
                    if (res.dram) ++st.stats.activity.dramAccesses;
                    if (res.auxProbe) ++st.stats.activity.auxAccesses;
                    setRegTiming(st, op.inst.rd, st.cycle + res.latencyCycles, true);
                    if (config.extraDcacheCycleStalls && dOverhead > 0) {
                        advanceTo(st, st.cycle + 1 + dOverhead, StallCause::Dmem);
                    }
                }
                break;
            case OpClass::Store:
                ++agg.stores;
                ++agg.l1dAccesses;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    const AccessResult res = lanes[l].dcache->write(op.aux);
                    st.stats.activity.l2WriteThroughs += res.l2Writes;
                    st.stats.activity.l2Accesses += res.l2Reads;
                    if (res.dram) ++st.stats.activity.dramAccesses;
                    if (res.auxProbe) ++st.stats.activity.auxAccesses;
                }
                break;
            case OpClass::Jal: {
                const bool correct = op.correct != 0;
                const bool writesLink = op.inst.rd != kZeroRegister;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    if (writesLink) setRegTiming(st, op.inst.rd, st.cycle + 1, false);
                    if (!correct) {
                        st.frontendReady = st.cycle + 1 + iHitLatency;
                        st.frontendCause = StallCause::Branch;
                    } else if (takenBubble > 0) {
                        st.frontendReady = std::max(st.frontendReady, st.cycle + takenBubble);
                        st.frontendCause = StallCause::Branch;
                    }
                }
                break;
            }
            case OpClass::Jalr: {
                const bool correct = op.correct != 0;
                const bool writesLink = op.inst.rd != kZeroRegister;
                if (!correct) ++agg.mispredicts;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    if (writesLink) setRegTiming(st, op.inst.rd, st.cycle + 1, false);
                    if (!correct) {
                        st.frontendReady = st.cycle + 1 + config.mispredictPenalty +
                                           iHitLatency + iOverhead;
                        st.frontendCause = StallCause::Branch;
                    } else if (takenBubble > 0) {
                        st.frontendReady = std::max(st.frontendReady, st.cycle + takenBubble);
                        st.frontendCause = StallCause::Branch;
                    }
                }
                break;
            }
            case OpClass::Branch: {
                const bool taken = op.taken != 0;
                const bool correct = op.correct != 0;
                ++agg.condBranches;
                if (taken) ++agg.takenBranches;
                if (!correct) ++agg.mispredicts;
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    if (!correct) {
                        st.frontendReady = st.cycle + 1 + config.mispredictPenalty +
                                           iHitLatency + iOverhead;
                        st.frontendCause = StallCause::Branch;
                    } else if (taken && takenBubble > 0) {
                        st.frontendReady = std::max(st.frontendReady, st.cycle + takenBubble);
                        st.frontendCause = StallCause::Branch;
                    }
                }
                break;
            }
            case OpClass::Alu: {
                std::uint32_t latency = 1;
                if (op.inst.op == Opcode::Mul) latency = config.mulLatency;
                if (op.inst.op == Opcode::Div || op.inst.op == Opcode::Rem) {
                    latency = config.divLatency;
                }
                for (std::size_t l = 0; l < laneCount; ++l) {
                    timing::PipelineState& st = *lanes[l].st;
                    issueFront(st);
                    setRegTiming(st, op.inst.rd, st.cycle + latency, false);
                }
                break;
            }
        }
        if (op.cls == OpClass::Halt) break; // last recorded op by construction
    }

    // Fold the lane-invariant stream counters into every lane, wholesale.
    for (std::size_t l = 0; l < laneCount; ++l) {
        RunStats& stats = lanes[l].st->stats;
        stats.instructions += agg.instructions;
        stats.loads += agg.loads;
        stats.stores += agg.stores;
        stats.condBranches += agg.condBranches;
        stats.takenBranches += agg.takenBranches;
        stats.mispredicts += agg.mispredicts;
        stats.activity.l1iAccesses += agg.l1iAccesses;
        stats.activity.l1dAccesses += agg.l1dAccesses;
        if (agg.halted) stats.halted = true;
    }
}

/// Per-lane mutable state of one TrialBatch: the structure-of-arrays over
/// trials. Elements are constructed in a pre-sized vector and never move,
/// so the schemes' reference to *l2 and the driver's predictor pointer stay
/// valid for the batch's lifetime.
struct LaneRuntime {
    BatchLane* lane = nullptr;
    bool alive = false;
    std::optional<detail::LegFaultMaps> localMaps;
    const detail::LegFaultMaps* maps = nullptr;
    std::unique_ptr<L2Cache> l2;
    SchemePair pair;
    std::optional<LinkOutput> trialLink;
    std::vector<std::uint32_t> table;
    std::optional<BranchPredictor> predictor;
    PipelineConfig pipeline;
    /// Points into replayBatch's dense state array: the op-major kernel
    /// walks every lane's scoreboard per op, so the states must sit
    /// shoulder to shoulder rather than strided across LaneRuntimes.
    timing::PipelineState* st = nullptr;
    std::optional<TapeDriver<true>> bbrDrv;
};

/// Thread-local pool of L2Cache objects reused across batches. Constructing
/// an L2 allocates and zeroes a ~400KB tag store — at tiny workload scales
/// that costs as much as replaying thousands of instructions, and it
/// recurs for every lane of every leg. reinitialize() restores the
/// as-constructed state (epoch-bumped tags, clean dirty bits, zero stats),
/// so a pooled cache is observationally identical to a fresh one: LRU
/// compares only relative ages within the current epoch.
class L2Pool {
public:
    [[nodiscard]] static std::unique_ptr<L2Cache> acquire(const L2Cache::Config& config) {
        auto& free = freeList();
        while (!free.empty()) {
            std::unique_ptr<L2Cache> l2 = std::move(free.back());
            free.pop_back();
            const CacheOrganization& org = l2->config().org;
            if (org.sizeBytes == config.org.sizeBytes &&
                org.blockBytes == config.org.blockBytes &&
                org.associativity == config.org.associativity) {
                l2->reinitialize(config);
                return l2;
            }
            // Organization changed between sweeps: drop the stale object.
        }
        return std::make_unique<L2Cache>(config);
    }

    static void release(std::unique_ptr<L2Cache> l2) {
        if (l2) freeList().push_back(std::move(l2));
    }

private:
    static std::vector<std::unique_ptr<L2Cache>>& freeList() {
        static thread_local std::vector<std::unique_ptr<L2Cache>> pool;
        return pool;
    }
};

} // namespace

std::unique_ptr<const ReplaySource> recordReplaySource(const Module& module,
                                                       const SystemConfig& recordConfig,
                                                       std::uint64_t byteCap,
                                                       SystemResult& outResult) {
    const obs::Span span("record");
    VC_EXPECTS(!schemeNeedsBbrLinking(recordConfig.scheme));
    TraceRecorder recorder(byteCap);
    SystemConfig config = recordConfig;
    config.observers.push_back(&recorder);
    outResult = simulateSystem(module, nullptr, config);
    VC_CHECK(!outResult.linkFailed);
    if (recorder.overflowed()) {
        obs::MetricsRegistry::global().add("trace.overflows", {});
        return nullptr;
    }

    // Re-link for the cache: link() is deterministic, so this image has the
    // exact layout the recording run executed.
    LinkOutput linked = link(module);
    linked.image.warmDecodeCache();
    ArchTrace trace =
        recorder.finish(outResult.run.halted, outResult.checksum, recordConfig.maxInstructions,
                        linked.image.entryAddr(), linked.image.sizeWords());
    VC_CHECK(trace.instructions() == outResult.run.instructions);
    return std::make_unique<const ReplaySource>(
        ReplaySource{std::move(trace), std::move(linked)});
}

std::vector<std::uint32_t> buildAddressTranslation(const Image& recording,
                                                   const Image& trial) {
    std::vector<std::uint32_t> table(recording.sizeWords(), kUnmappedWord);
    const auto mapSection = [&](std::uint32_t recByte, std::uint32_t trialByte,
                                std::uint32_t words) {
        const std::uint32_t recWord = (recByte - recording.baseAddr()) / 4;
        VC_EXPECTS(recWord + words <= table.size());
        for (std::uint32_t w = 0; w < words; ++w) table[recWord + w] = trialByte + w * 4;
    };

    const auto& recBlocks = recording.placements();
    const auto& trialBlocks = trial.placements();
    VC_EXPECTS(recBlocks.size() == trialBlocks.size());
    for (std::size_t i = 0; i < recBlocks.size(); ++i) {
        const PlacedBlock& rec = recBlocks[i];
        const PlacedBlock& tri = trialBlocks[i];
        VC_EXPECTS(rec.functionIndex == tri.functionIndex &&
                   rec.blockIndex == tri.blockIndex && rec.codeWords == tri.codeWords &&
                   rec.literalWords == tri.literalWords);
        mapSection(rec.byteAddr, tri.byteAddr, rec.sizeWords());
    }
    const auto& recPools = recording.poolPlacements();
    const auto& trialPools = trial.poolPlacements();
    VC_EXPECTS(recPools.size() == trialPools.size());
    for (std::size_t i = 0; i < recPools.size(); ++i) {
        const PlacedPool& rec = recPools[i];
        const PlacedPool& tri = trialPools[i];
        VC_EXPECTS(rec.functionIndex == tri.functionIndex &&
                   rec.sizeWords == tri.sizeWords);
        mapSection(rec.byteAddr, tri.byteAddr, rec.sizeWords);
    }
    return table;
}

void replayBatch(const Module* bbrModule, const TraceCache& cache,
                 std::span<BatchLane> lanes) {
    if (lanes.empty()) return;
    const obs::Span span("batch");
    const bool needsBbr = schemeNeedsBbrLinking(lanes.front().config.scheme);
    const ReplaySource* source = needsBbr ? cache.bbr.get() : cache.plain.get();
    VC_EXPECTS(source != nullptr);
    VC_EXPECTS(source->trace.finalized() && !source->trace.overflowed());
    VC_EXPECTS(source->trace.entryAddr() == source->link.image.entryAddr());
    VC_EXPECTS(source->trace.imageWords() == source->link.image.sizeWords());

    // --- Per-lane setup: maps, L2, schemes, (BBR) link + translation. ---
    // Identical, per lane, to simulateSystem's preamble; a lane whose BBR
    // link fails is finished here with the same yield-loss accounting and
    // sits out the replay.
    std::vector<LaneRuntime> rts(lanes.size());
    std::vector<timing::PipelineState> states(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        BatchLane& lane = lanes[i];
        const SystemConfig& config = lane.config;
        LaneRuntime& rt = rts[i];
        rt.lane = &lane;
        rt.st = &states[i];
        VC_EXPECTS(schemeNeedsBbrLinking(config.scheme) == needsBbr);
        VC_EXPECTS(source->trace.maxInstructions() == config.maxInstructions);
        VC_EXPECTS(config.observers.empty());

        lane.result = SystemResult{};
        if (lane.chipMaps == nullptr || detail::schemeIsDefectFree(config.scheme)) {
            rt.localMaps.emplace(detail::generateLegFaultMaps(config));
        }
        rt.maps = rt.localMaps.has_value() ? &*rt.localMaps : lane.chipMaps;

        L2Cache::Config l2Config;
        l2Config.dramLatencyCycles =
            dramLatencyCycles(config.dramLatencyNs, config.op.frequency);
        rt.l2 = L2Pool::acquire(l2Config);
        rt.pair =
            makeSchemes(config.scheme, config.l1Org, rt.maps->dcache, rt.maps->icache,
                        *rt.l2);
        VC_CHECK(rt.pair.needsBbrLinking == needsBbr);

        AddressTranslator xlate;
        if (needsBbr) {
            VC_EXPECTS(bbrModule != nullptr);
            LinkOptions options;
            options.bbrPlacement = true;
            options.icacheFaultMap = &rt.maps->icache;
            try {
                rt.trialLink = analysis::linkVerified(*bbrModule, options);
            } catch (const LinkError& e) {
                lane.result.linkFailed = true;
                lane.result.forensics.failCause = e.cause();
                detail::publishLegMetrics(config, lane.result);
                continue;
            }
            lane.result.linkStats = rt.trialLink->stats;
            rt.table = buildAddressTranslation(source->link.image, rt.trialLink->image);
            rt.predictor.emplace(config.pipeline.predictor);
            xlate.table = rt.table.data();
            xlate.tableWords = static_cast<std::uint32_t>(rt.table.size());
            xlate.base = source->link.image.baseAddr();
        } else {
            lane.result.linkStats = source->link.stats;
        }

        rt.pipeline = config.pipeline;
        rt.pipeline.maxInstructions = config.maxInstructions;
        if (needsBbr) {
            rt.bbrDrv.emplace(xlate, &*rt.predictor,
                              xlate.translate(source->link.image.entryAddr()));
        } else {
            // The op-major kernel hoists these per-op facts out of its lane
            // loop, so they must not vary within a batch. All sweep legs
            // share one SystemConfig template, so this never fires there.
            const PipelineConfig& ref = rts.front().pipeline;
            VC_EXPECTS(rt.pipeline.issueWidth == ref.issueWidth);
            VC_EXPECTS(rt.pipeline.mispredictPenalty == ref.mispredictPenalty);
            VC_EXPECTS(rt.pipeline.mulLatency == ref.mulLatency);
            VC_EXPECTS(rt.pipeline.divLatency == ref.divLatency);
            VC_EXPECTS(rt.pipeline.takenBranchFetchBubble == ref.takenBranchFetchBubble);
            VC_EXPECTS(rt.pipeline.dcachePortOccupancy == ref.dcachePortOccupancy);
            VC_EXPECTS(rt.pipeline.extraDcacheCycleStalls == ref.extraDcacheCycleStalls);
        }
        rt.alive = true;
    }

    // Scheme-homogeneous plain groups for the op-major kernel (lane order
    // within a group never affects results — lanes share no state), plus
    // the BBR lanes, which keep the lane-major path: their translated pc
    // streams and live predictors make per-op facts lane-dependent.
    std::vector<std::pair<SchemeKind, std::vector<LaneRuntime*>>> plainGroups;
    std::vector<LaneRuntime*> bbrLanes;
    for (LaneRuntime& rt : rts) {
        if (!rt.alive) continue;
        if (needsBbr) {
            bbrLanes.push_back(&rt);
            continue;
        }
        const SchemeKind kind = rt.lane->config.scheme;
        auto it = std::find_if(plainGroups.begin(), plainGroups.end(),
                               [kind](const auto& g) { return g.first == kind; });
        if (it == plainGroups.end()) {
            plainGroups.emplace_back(kind, std::vector<LaneRuntime*>{});
            it = std::prev(plainGroups.end());
        }
        it->second.push_back(&rt);
    }

    // --- Chunked replay: decode once, advance every lane through it. ---
    TapeBuilder builder(source->link.image, source->trace);
    std::vector<TapeOp> tape(kTapeChunkOps);
    while (!builder.done()) {
        const std::uint32_t count = builder.fill(tape.data(), kTapeChunkOps);
        for (auto& [kind, group] : plainGroups) {
            withConcreteSchemes(
                kind, group.front()->pair, [&](auto& icache0, auto& dcache0) {
                    using IC = std::decay_t<decltype(icache0)>;
                    using DC = std::decay_t<decltype(dcache0)>;
                    // withConcreteSchemes instantiates this lambda for the
                    // BBR pairing too, but BBR lanes never land in a plain
                    // group — guard so that instantiation stays dead code.
                    if constexpr (!std::is_same_v<IC, BbrICache>) {
                        std::vector<PlainLaneRef<IC, DC>> refs;
                        refs.reserve(group.size());
                        for (LaneRuntime* rt : group) {
                            refs.push_back(PlainLaneRef<IC, DC>{
                                rt->st, static_cast<IC*>(rt->pair.icache.get()),
                                static_cast<DC*>(rt->pair.dcache.get())});
                        }
                        runTapeChunkPlain(tape.data(), count, refs.data(), refs.size(),
                                          group.front()->pipeline);
                    }
                });
        }
        for (LaneRuntime* rt : bbrLanes) {
            withConcreteSchemes(
                rt->lane->config.scheme, rt->pair, [&](auto& icache, auto& dcache) {
                    if constexpr (std::is_same_v<std::decay_t<decltype(icache)>,
                                                 BbrICache>) {
                        rt->bbrDrv->beginChunk(tape.data(), count);
                        timing::runPipelineChunk(*rt->st, *rt->bbrDrv, icache, dcache,
                                                 rt->pipeline);
                    }
                });
        }
    }
    VC_CHECK(builder.fullyConsumed());

    // --- Per-lane finish: the replayed run must retrace the recording
    // exactly, then shares simulateSystem's finalization. ---
    for (LaneRuntime& rt : rts) {
        if (!rt.alive) continue;
        SystemResult& result = rt.lane->result;
        result.run = timing::finalizePipeline(*rt.st);
        VC_CHECK(result.run.instructions == source->trace.instructions());
        VC_CHECK(result.run.halted == source->trace.halted());
        result.checksum = source->trace.checksum();
        detail::finalizeLegResult(rt.lane->config, rt.pair, *rt.maps, result);
    }

    // Return the lanes' L2s for the next batch. The schemes in rt.pair hold
    // references into these objects, but rts is destroyed on return and the
    // pooled caches outlive it.
    for (LaneRuntime& rt : rts) L2Pool::release(std::move(rt.l2));
}

} // namespace voltcache
