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

/// Recording-layout -> trial-layout address mapping of one BBR lane.
struct AddressTranslator {
    const std::uint32_t* table = nullptr;
    std::uint32_t tableWords = 0;
    std::uint32_t base = 0;

    [[nodiscard]] std::uint32_t translate(std::uint32_t recAddr) const {
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
// the shared timing step, timing::issueOne.
// ---------------------------------------------------------------------------

/// Tape chunk size in instructions. 256 ops of 20 bytes make a 5KB tape
/// that stays hot in the host's L1 while a batch's lanes take turns
/// replaying it; larger chunks amortize the per-lane state reload slightly
/// better but start evicting the lanes' tag arrays.
constexpr std::uint32_t kTapeChunkOps = 256;
static_assert(sizeof(TapeOp) == 20);

/// The Driver hooks replay skips: a replayed run carries no architectural
/// values and has no observers.
struct NoArchEffects {
    void writeLui() const {}
    void writeAlu() const {}
    void writeLink() const {}
    void writeLoad(std::uint32_t /*addr*/) const {}
    void doStore(std::uint32_t /*addr*/) const {}
    void notifyIssue() const {}
    void notifyControlFlow(bool /*taken*/, std::uint32_t /*nextPc*/, bool /*correct*/) const {}
};

/// Plain-lane Driver for timing::issueOne: a stateless view of one tape op.
/// A plain lane runs the recording layout itself under the recorded
/// predictor verdicts, so every fact is a field of the op, and there is no
/// position to step — the op-major loop in replayBatch moves to the next op.
class TapeOpDriver : public NoArchEffects {
public:
    explicit TapeOpDriver(const TapeOp& op) : op_(op) {}

    [[nodiscard]] const Instruction& inst() const { return op_.inst; }
    [[nodiscard]] std::uint32_t pc() const { return op_.recPc; }
    [[nodiscard]] std::uint32_t loadAddr() const { return op_.aux; }
    [[nodiscard]] std::uint32_t literalAddr() const { return op_.aux; }
    [[nodiscard]] std::uint32_t storeAddr() const { return op_.aux; }
    [[nodiscard]] bool condTaken() const { return op_.taken != 0; }
    [[nodiscard]] std::uint32_t directTarget() const { return op_.aux; }
    [[nodiscard]] std::uint32_t jalrTarget() const { return op_.aux; }

    [[nodiscard]] bool resolveJump(std::uint32_t /*pc*/, std::uint32_t /*target*/) const {
        return op_.correct != 0;
    }
    [[nodiscard]] bool resolveReturn(std::uint32_t /*pc*/, std::uint32_t /*target*/) const {
        return op_.correct != 0;
    }
    [[nodiscard]] bool resolveBranch(std::uint32_t /*pc*/, bool /*taken*/,
                                     std::uint32_t /*target*/) const {
        return op_.correct != 0;
    }
    void pushReturnAddress(std::uint32_t /*addr*/) const {}

    void stepFallthrough() const {}
    void stepBranch(bool /*taken*/, std::uint32_t /*target*/) const {}
    void stepJump(std::uint32_t /*target*/) const {}
    void stepJalr(std::uint32_t /*target*/) const {}

private:
    TapeOp op_; ///< by value: the compiler keeps the facts in registers
};

/// A BBR lane's own replay state: its recording-to-trial translation, the
/// pc it has reached on its trial layout, and its live predictor (the
/// predictor is pc-indexed, so recorded verdicts do not carry over).
struct BbrLaneState {
    AddressTranslator xlate;
    std::uint32_t trialPc = 0;
    BranchPredictor predictor;
};

/// BBR-lane Driver for timing::issueOne: a view of one tape op on one BBR
/// lane. Addresses and targets are translated onto the lane's trial
/// layout, verdicts come from the lane's live predictor, and the step
/// methods advance the lane's trial pc.
class BbrOpDriver : public NoArchEffects {
public:
    BbrOpDriver(const TapeOp& op, BbrLaneState& lane) : op_(op), lane_(lane) {}

    [[nodiscard]] const Instruction& inst() const { return op_.inst; }
    [[nodiscard]] std::uint32_t pc() const { return lane_.trialPc; }

    [[nodiscard]] std::uint32_t loadAddr() const { return lane_.xlate.translateData(op_.aux); }
    [[nodiscard]] std::uint32_t literalAddr() const { return lane_.xlate.translate(op_.aux); }
    [[nodiscard]] std::uint32_t storeAddr() const { return lane_.xlate.translateData(op_.aux); }

    [[nodiscard]] bool condTaken() const { return op_.taken != 0; }
    [[nodiscard]] std::uint32_t directTarget() const { return lane_.xlate.translate(op_.aux); }
    [[nodiscard]] std::uint32_t jalrTarget() const { return lane_.xlate.translate(op_.aux); }

    [[nodiscard]] bool resolveJump(std::uint32_t pc, std::uint32_t target) {
        const auto prediction = lane_.predictor.predictJump(pc);
        return lane_.predictor.resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/false);
    }
    [[nodiscard]] bool resolveReturn(std::uint32_t pc, std::uint32_t target) {
        const auto prediction = lane_.predictor.predictReturn(pc);
        return lane_.predictor.resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/true);
    }
    [[nodiscard]] bool resolveBranch(std::uint32_t pc, bool taken, std::uint32_t target) {
        const auto prediction = lane_.predictor.predictBranch(pc);
        return lane_.predictor.resolve(prediction, pc, taken, target,
                                       /*chargeMispredict=*/true);
    }
    void pushReturnAddress(std::uint32_t addr) { lane_.predictor.pushReturnAddress(addr); }

    void stepFallthrough() { lane_.trialPc += 4; }
    void stepBranch(bool taken, std::uint32_t target) {
        lane_.trialPc = taken ? target : lane_.trialPc + 4;
    }
    void stepJump(std::uint32_t target) { lane_.trialPc = target; }
    void stepJalr(std::uint32_t target) { lane_.trialPc = target; }

private:
    const TapeOp& op_;
    BbrLaneState& lane_;
};

/// One lane as the op-major loop sees it: timing state, the lane's
/// concrete (devirtualized) schemes, its pipeline configuration and, on a
/// BBR lane, its BbrLaneState.
template <class ICacheT, class DCacheT>
struct LaneRef {
    timing::PipelineState* st = nullptr;
    ICacheT* icache = nullptr;
    DCacheT* dcache = nullptr;
    const PipelineConfig* config = nullptr;
    BbrLaneState* bbr = nullptr;
};

/// Per-lane mutable state of one TrialBatch: the structure-of-arrays over
/// trials. Elements are constructed in a pre-sized vector and never move,
/// so the schemes' reference to *l2 and the lane refs' pointers stay valid
/// for the batch's lifetime.
struct LaneRuntime {
    BatchLane* lane = nullptr;
    bool alive = false;
    std::optional<detail::LegFaultMaps> localMaps;
    const detail::LegFaultMaps* maps = nullptr;
    std::unique_ptr<L2Cache> l2;
    SchemePair pair;
    std::optional<LinkOutput> trialLink;
    std::vector<std::uint32_t> table;
    std::optional<BbrLaneState> bbr;
    PipelineConfig pipeline;
    /// Points into replayBatch's dense state array: the op-major loop
    /// walks every lane's scoreboard per op, so the states must sit
    /// shoulder to shoulder rather than strided across LaneRuntimes.
    timing::PipelineState* st = nullptr;
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

        rt.pipeline = config.pipeline;
        rt.pipeline.maxInstructions = config.maxInstructions;
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
            const AddressTranslator xlate{rt.table.data(),
                                          static_cast<std::uint32_t>(rt.table.size()),
                                          source->link.image.baseAddr()};
            rt.bbr.emplace(BbrLaneState{xlate, xlate.translate(source->link.image.entryAddr()),
                                        BranchPredictor(config.pipeline.predictor)});
        } else {
            lane.result.linkStats = source->link.stats;
        }
        rt.alive = true;
    }

    // Scheme-homogeneous groups (lane order within a group never affects
    // results — lanes share no state).
    std::vector<std::pair<SchemeKind, std::vector<LaneRuntime*>>> groups;
    for (LaneRuntime& rt : rts) {
        if (!rt.alive) continue;
        const SchemeKind kind = rt.lane->config.scheme;
        auto it = std::find_if(groups.begin(), groups.end(),
                               [kind](const auto& g) { return g.first == kind; });
        if (it == groups.end()) {
            groups.emplace_back(kind, std::vector<LaneRuntime*>{});
            it = std::prev(groups.end());
        }
        it->second.push_back(&rt);
    }

    // --- Chunked replay: decode once, advance every lane through it. ---
    // Op-major: for each tape op, every lane of a group takes the same
    // timing step, so the host's branch predictor sees each of the step's
    // data-dependent branches resolve for the same op B times in a row. The
    // tape holds exactly the recorded instructions, and recording stopped at
    // the lanes' shared instruction limit (checked per lane above), so the
    // tape's end is every lane's end.
    TapeBuilder builder(source->link.image, source->trace);
    std::vector<TapeOp> tape(kTapeChunkOps);
    while (!builder.done()) {
        const std::uint32_t count = builder.fill(tape.data(), kTapeChunkOps);
        for (auto& [kind, group] : groups) {
            withConcreteSchemes(
                kind, group.front()->pair, [&](auto& icache0, auto& dcache0) {
                    using IC = std::decay_t<decltype(icache0)>;
                    using DC = std::decay_t<decltype(dcache0)>;
                    std::vector<LaneRef<IC, DC>> refs;
                    refs.reserve(group.size());
                    for (LaneRuntime* rt : group) {
                        refs.push_back(LaneRef<IC, DC>{
                            rt->st, static_cast<IC*>(rt->pair.icache.get()),
                            static_cast<DC*>(rt->pair.dcache.get()), &rt->pipeline,
                            rt->bbr.has_value() ? &*rt->bbr : nullptr});
                    }
                    for (std::uint32_t i = 0; i < count; ++i) {
                        if constexpr (std::is_same_v<IC, BbrICache>) {
                            for (const LaneRef<IC, DC>& ref : refs) {
                                BbrOpDriver op(tape[i], *ref.bbr);
                                timing::issueOne(*ref.st, op, *ref.icache, *ref.dcache,
                                                 *ref.config);
                            }
                        } else {
                            // Not const: GCC keeps the fields of a const
                            // local in memory instead of registers.
                            TapeOpDriver op(tape[i]);
                            for (const LaneRef<IC, DC>& ref : refs) {
                                timing::issueOne(*ref.st, op, *ref.icache, *ref.dcache,
                                                 *ref.config);
                            }
                        }
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
