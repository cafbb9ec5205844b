#include "cpu/arch_trace.h"

#include <utility>

namespace voltcache {

void ArchTrace::finalize(bool halted, std::int32_t checksum, std::uint64_t maxInstructions,
                         std::uint32_t entryAddr, std::uint32_t imageWords) {
    VC_EXPECTS(!finalized_);
    finalized_ = true;
    halted_ = halted;
    checksum_ = checksum;
    maxInstructions_ = maxInstructions;
    entryAddr_ = entryAddr;
    imageWords_ = imageWords;
}

ArchTrace TraceRecorder::finish(bool halted, std::int32_t checksum,
                                std::uint64_t maxInstructions, std::uint32_t entryAddr,
                                std::uint32_t imageWords) {
    VC_EXPECTS(!trace_.overflowed());
    trace_.finalize(halted, checksum, maxInstructions, entryAddr, imageWords);
    return std::move(trace_);
}

std::uint32_t TapeBuilder::fill(TapeOp* out, std::uint32_t cap) {
    std::uint32_t n = 0;
    while (n < cap && remaining_ != 0) {
        const Instruction inst = *ip_;
        TapeOp& op = out[n++];
        op.inst = inst;
        op.recPc = recPc_;
        op.aux = 0;
        op.taken = 0;
        op.correct = 0;
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

} // namespace voltcache
