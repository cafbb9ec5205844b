// Compact architectural access trace for the record-once / replay-many
// Monte Carlo engine (core/replay.h).
//
// The paper's schemes are architecturally transparent: fault maps and cache
// schemes change *timing*, never values, so the logical access stream of a
// benchmark at a fixed code layout is identical across every Monte Carlo
// trial. One execution-driven run records the minimal dynamic facts the
// timing kernel cannot re-derive statically from the linked image:
//
//   * control flow — 2 bits per Jal/Jalr/conditional branch, program order:
//     the taken direction and whether the branch predictor was correct
//     (branch PCs and direct targets are re-derived from the image);
//   * Jalr targets — zigzag-varint deltas of the indirect target word;
//   * data addresses — zigzag-varint deltas of the Lw/Sw effective word
//     (Ldl literal addresses are pc-relative and re-derived from the image).
//
// Streams live in chunked byte buffers with an optional byte cap: a run
// whose trace would exceed the cap marks the trace overflowed, and the
// sweep falls back to execution-driven legs instead of accumulating an
// unbounded resident trace.
//
// TraceRecorder writes a trace; TapeBuilder reads it back against the
// recording image, one flat TapeOp per instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "cpu/simulator.h"
#include "isa/instruction.h"
#include "linker/image.h"

namespace voltcache {

namespace detail {

[[nodiscard]] constexpr std::uint32_t zigzag(std::int32_t value) noexcept {
    return (static_cast<std::uint32_t>(value) << 1) ^
           static_cast<std::uint32_t>(value >> 31);
}

[[nodiscard]] constexpr std::int32_t unzigzag(std::uint32_t value) noexcept {
    return static_cast<std::int32_t>((value >> 1) ^ (0U - (value & 1U)));
}

} // namespace detail

/// Append-only byte buffer in fixed-size chunks, so growth never copies and
/// a byte cap bounds allocation without reserving up front.
class ChunkedBytes {
public:
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    void push(std::uint8_t byte) {
        if (used_ == kChunkBytes || chunks_.empty()) {
            chunks_.push_back(std::make_unique<std::uint8_t[]>(kChunkBytes));
            used_ = 0;
        }
        chunks_.back()[used_++] = byte;
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunkBytes + used_;
    }
    /// Bytes actually resident (allocation granularity), for the obs gauge.
    [[nodiscard]] std::size_t residentBytes() const noexcept {
        return chunks_.size() * kChunkBytes;
    }

    /// Sequential reader; the only access pattern replay needs. The size is
    /// snapshotted at construction (readers walk sealed traces), so the hot
    /// next() pays one cached compare instead of recomputing size().
    class Reader {
    public:
        explicit Reader(const ChunkedBytes& bytes)
            : bytes_(&bytes),
              chunk_(bytes.chunks_.empty() ? nullptr : bytes.chunks_.front().get()),
              size_(bytes.size()) {}
        [[nodiscard]] std::uint8_t next() {
            VC_EXPECTS(consumed_ < size_);
            if (offset_ == kChunkBytes) {
                chunk_ = bytes_->chunks_[++chunkIndex_].get();
                offset_ = 0;
            }
            ++consumed_;
            return chunk_[offset_++];
        }
        [[nodiscard]] std::size_t consumed() const noexcept { return consumed_; }

    private:
        const ChunkedBytes* bytes_;
        const std::uint8_t* chunk_ = nullptr;
        std::size_t size_ = 0;
        std::size_t chunkIndex_ = 0;
        std::size_t offset_ = 0;
        std::size_t consumed_ = 0;
    };

private:
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    std::size_t used_ = kChunkBytes; // forces first push to allocate
};

/// One recorded control-flow outcome.
struct CfRecord {
    bool taken = false;
    bool correct = false;
};

/// One benchmark's recorded architectural stream plus the header facts the
/// replay engine needs to validate and finish a SystemResult.
class ArchTrace {
public:
    /// `byteCap` bounds the summed stream payload; 0 = unlimited.
    explicit ArchTrace(std::uint64_t byteCap = 0) : byteCap_(byteCap) {}

    // --- Writer API (TraceRecorder) ---
    void countInstruction() noexcept { ++instructions_; }
    void putCf(bool taken, bool correct) {
        cfPending_ |= static_cast<std::uint8_t>((static_cast<unsigned>(taken) |
                                                 (static_cast<unsigned>(correct) << 1))
                                                << (2 * cfPendingCount_));
        if (++cfPendingCount_ == 4) {
            cf_.push(cfPending_);
            cfPending_ = 0;
            cfPendingCount_ = 0;
            checkCap();
        }
        ++cfRecords_;
    }
    void putJalrTarget(std::uint32_t target) {
        VC_EXPECTS((target & 3U) == 0);
        const auto word = static_cast<std::int32_t>(target >> 2);
        putVarint(jalr_, detail::zigzag(word - prevJalrWord_));
        prevJalrWord_ = word;
        ++jalrRecords_;
        checkCap();
    }
    void putDataAddr(std::uint32_t addr) {
        VC_EXPECTS((addr & 3U) == 0);
        const auto word = static_cast<std::int32_t>(addr >> 2);
        putVarint(data_, detail::zigzag(word - prevDataWord_));
        prevDataWord_ = word;
        ++dataRecords_;
        checkCap();
    }
    /// Header facts from the recording run's SystemResult, sealed once.
    void finalize(bool halted, std::int32_t checksum, std::uint64_t maxInstructions,
                  std::uint32_t entryAddr, std::uint32_t imageWords);

    // --- Reader API (replay) ---
    [[nodiscard]] std::uint64_t instructions() const noexcept { return instructions_; }
    [[nodiscard]] bool halted() const noexcept { return halted_; }
    [[nodiscard]] std::int32_t checksum() const noexcept { return checksum_; }
    [[nodiscard]] std::uint64_t maxInstructions() const noexcept { return maxInstructions_; }
    [[nodiscard]] std::uint32_t entryAddr() const noexcept { return entryAddr_; }
    [[nodiscard]] std::uint32_t imageWords() const noexcept { return imageWords_; }
    [[nodiscard]] bool finalized() const noexcept { return finalized_; }
    [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }
    [[nodiscard]] std::uint64_t payloadBytes() const noexcept {
        return cf_.size() + jalr_.size() + data_.size();
    }
    [[nodiscard]] std::uint64_t residentBytes() const noexcept {
        return cf_.residentBytes() + jalr_.residentBytes() + data_.residentBytes();
    }

    /// Streaming cursor over the three streams, consumed in program order.
    /// Snapshots the stream totals at construction — cursors walk sealed
    /// traces, so the hot per-record bounds checks stay in registers.
    class Cursor {
    public:
        explicit Cursor(const ArchTrace& trace)
            : cf_(trace.cf_), jalr_(trace.jalr_), data_(trace.data_),
              cfRecords_(trace.cfRecords_), jalrRecords_(trace.jalrRecords_),
              dataRecords_(trace.dataRecords_),
              cfStoredLimit_(trace.cfRecords_ & ~std::uint64_t{3}),
              cfPending_(trace.cfPending_) {}

        [[nodiscard]] CfRecord nextCf() {
            VC_EXPECTS(cfConsumed_ < cfRecords_);
            const unsigned slot = static_cast<unsigned>(cfConsumed_) & 3U;
            if (slot == 0) {
                // The final partial byte never reached the chunk buffer.
                cfByte_ = cfConsumed_ < cfStoredLimit_ ? cf_.next() : cfPending_;
            }
            ++cfConsumed_;
            const unsigned pair = (cfByte_ >> (2 * slot)) & 3U;
            return {(pair & 1U) != 0, (pair & 2U) != 0};
        }
        [[nodiscard]] std::uint32_t nextJalrTarget() {
            VC_EXPECTS(jalrConsumed_ < jalrRecords_);
            ++jalrConsumed_;
            prevJalrWord_ += detail::unzigzag(nextVarint(jalr_));
            return static_cast<std::uint32_t>(prevJalrWord_) << 2;
        }
        [[nodiscard]] std::uint32_t nextDataAddr() {
            VC_EXPECTS(dataConsumed_ < dataRecords_);
            ++dataConsumed_;
            prevDataWord_ += detail::unzigzag(nextVarint(data_));
            return static_cast<std::uint32_t>(prevDataWord_) << 2;
        }
        /// True once every record of every stream has been read.
        [[nodiscard]] bool fullyConsumed() const noexcept {
            return cfConsumed_ == cfRecords_ && jalrConsumed_ == jalrRecords_ &&
                   dataConsumed_ == dataRecords_;
        }

    private:
        static std::uint32_t nextVarint(ChunkedBytes::Reader& reader) {
            std::uint32_t value = 0;
            unsigned shift = 0;
            for (;;) {
                const std::uint8_t byte = reader.next();
                value |= static_cast<std::uint32_t>(byte & 0x7FU) << shift;
                if ((byte & 0x80U) == 0) return value;
                shift += 7;
                VC_CHECK(shift < 35);
            }
        }

        ChunkedBytes::Reader cf_;
        ChunkedBytes::Reader jalr_;
        ChunkedBytes::Reader data_;
        std::uint64_t cfRecords_;
        std::uint64_t jalrRecords_;
        std::uint64_t dataRecords_;
        std::uint64_t cfStoredLimit_;
        std::uint8_t cfPending_;
        std::uint8_t cfByte_ = 0;
        std::uint64_t cfConsumed_ = 0;
        std::uint64_t jalrConsumed_ = 0;
        std::uint64_t dataConsumed_ = 0;
        std::int32_t prevJalrWord_ = 0;
        std::int32_t prevDataWord_ = 0;
    };

private:
    static void putVarint(ChunkedBytes& bytes, std::uint32_t value) {
        while (value >= 0x80U) {
            bytes.push(static_cast<std::uint8_t>(value) | 0x80U);
            value >>= 7;
        }
        bytes.push(static_cast<std::uint8_t>(value));
    }
    void checkCap() noexcept {
        if (byteCap_ != 0 && payloadBytes() > byteCap_) overflowed_ = true;
    }

    ChunkedBytes cf_;
    ChunkedBytes jalr_;
    ChunkedBytes data_;
    std::uint8_t cfPending_ = 0;
    unsigned cfPendingCount_ = 0;
    std::int32_t prevJalrWord_ = 0;
    std::int32_t prevDataWord_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t cfRecords_ = 0;
    std::uint64_t jalrRecords_ = 0;
    std::uint64_t dataRecords_ = 0;
    std::uint64_t byteCap_ = 0;
    bool overflowed_ = false;
    bool finalized_ = false;
    bool halted_ = false;
    std::int32_t checksum_ = 0;
    std::uint64_t maxInstructions_ = 0;
    std::uint32_t entryAddr_ = 0;
    std::uint32_t imageWords_ = 0;
};

/// TraceObserver that records one ArchTrace during an execution-driven run.
/// Attach via SystemConfig::observers, run once, then `finish()` with the
/// run's SystemResult facts. A capped recorder that overflows keeps
/// counting but stops storing; callers must check `overflowed()` and fall
/// back to execution-driven evaluation.
class TraceRecorder final : public TraceObserver {
public:
    explicit TraceRecorder(std::uint64_t byteCap = 0) : trace_(byteCap) {}

    void onInstruction(std::uint32_t pc, const Instruction& inst) override {
        (void)pc;
        trace_.countInstruction();
        skipNextData_ = inst.op == Opcode::Ldl;
    }
    void onDataAccess(std::uint32_t addr, bool isWrite) override {
        (void)isWrite;
        // Ldl literal addresses are pc-relative: replay re-derives them from
        // the image, so only register-relative Lw/Sw addresses are recorded.
        if (skipNextData_ || trace_.overflowed()) return;
        trace_.putDataAddr(addr);
    }
    void onControlFlow(std::uint32_t pc, const Instruction& inst, bool taken,
                       std::uint32_t nextPc, bool predictedCorrect) override {
        (void)pc;
        if (trace_.overflowed()) return;
        trace_.putCf(taken, predictedCorrect);
        if (inst.op == Opcode::Jalr) trace_.putJalrTarget(nextPc);
    }

    [[nodiscard]] bool overflowed() const noexcept { return trace_.overflowed(); }
    [[nodiscard]] std::uint64_t instructions() const noexcept {
        return trace_.instructions();
    }

    /// Seal and move the trace out; the recorder is spent afterwards.
    [[nodiscard]] ArchTrace finish(bool halted, std::int32_t checksum,
                                   std::uint64_t maxInstructions, std::uint32_t entryAddr,
                                   std::uint32_t imageWords);

private:
    ArchTrace trace_;
    bool skipNextData_ = false;
};

/// One pre-lowered instruction of a recorded stream, as the replay engine
/// (core/replay.cpp) walks it. `aux` is the one recorded fact the opcode
/// needs: the data address (Lw/Sw), the literal address (Ldl), or the
/// recording-layout control-flow target (Jal/Jalr/conditional branch) — all
/// in recording-layout coordinates, so each BBR lane applies its own
/// translation.
struct TapeOp {
    Instruction inst;
    std::uint32_t recPc = 0;
    std::uint32_t aux = 0;
    std::uint8_t taken = 0;   ///< recorded branch direction (1 for jumps)
    std::uint8_t correct = 0; ///< recorded predictor verdict
};

/// Decodes a sealed ArchTrace chunk-by-chunk into TapeOps: walks the
/// recording image from its entry point and pops the cursor's recorded
/// facts in the order TraceRecorder pushed them — the reading half of the
/// trace format.
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
    std::uint32_t fill(TapeOp* out, std::uint32_t cap);

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
};

} // namespace voltcache
