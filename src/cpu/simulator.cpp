#include "cpu/simulator.h"

#include <limits>

#include "common/contracts.h"
#include "cpu/timing_kernel.h"
#include "obs/span.h"

namespace voltcache {

namespace {

std::int32_t aluOp(Opcode op, std::int32_t a, std::int32_t b) {
    const auto ua = static_cast<std::uint32_t>(a);
    const auto ub = static_cast<std::uint32_t>(b);
    switch (op) {
        case Opcode::Add:
        case Opcode::Addi: return static_cast<std::int32_t>(ua + ub);
        case Opcode::Sub: return static_cast<std::int32_t>(ua - ub);
        case Opcode::And:
        case Opcode::Andi: return a & b;
        case Opcode::Or:
        case Opcode::Ori: return a | b;
        case Opcode::Xor:
        case Opcode::Xori: return a ^ b;
        case Opcode::Sll:
        case Opcode::Slli: return static_cast<std::int32_t>(ua << (ub & 31));
        case Opcode::Srl:
        case Opcode::Srli: return static_cast<std::int32_t>(ua >> (ub & 31));
        case Opcode::Sra:
        case Opcode::Srai: return a >> (ub & 31);
        case Opcode::Mul:
            return static_cast<std::int32_t>(ua * ub);
        case Opcode::Div:
            if (b == 0) return -1; // RISC-V convention
            if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return a;
            return a / b;
        case Opcode::Rem:
            if (b == 0) return a;
            if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return 0;
            return a % b;
        case Opcode::Slt:
        case Opcode::Slti: return a < b ? 1 : 0;
        case Opcode::Sltu: return ua < ub ? 1 : 0;
        default: VC_ENSURES(false); return 0;
    }
}

bool branchTaken(Opcode op, std::int32_t a, std::int32_t b) {
    const auto ua = static_cast<std::uint32_t>(a);
    const auto ub = static_cast<std::uint32_t>(b);
    switch (op) {
        case Opcode::Beq: return a == b;
        case Opcode::Bne: return a != b;
        case Opcode::Blt: return a < b;
        case Opcode::Bge: return a >= b;
        case Opcode::Bltu: return ua < ub;
        case Opcode::Bgeu: return ua >= ub;
        default: VC_ENSURES(false); return false;
    }
}

} // namespace

/// Execution-driven Driver for timing::runPipeline: functional simulation
/// supplies the dynamic facts (register values, memory, live branch
/// predictor) and carries the architectural side effects.
class ExecDriver {
public:
    explicit ExecDriver(Simulator& sim) : sim_(sim) {}

    [[nodiscard]] const Instruction& inst() { return *(inst_ = &sim_.image_->fetch(sim_.pc_)); }
    [[nodiscard]] std::uint32_t pc() const { return sim_.pc_; }

    [[nodiscard]] std::uint32_t loadAddr() {
        const auto addr = static_cast<std::uint32_t>(sim_.regs_[inst_->rs1] + inst_->imm);
        for (TraceObserver* observer : sim_.observers_) observer->onDataAccess(addr, false);
        return addr;
    }
    [[nodiscard]] std::uint32_t literalAddr() {
        const std::uint32_t addr = sim_.pc_ + static_cast<std::uint32_t>(inst_->imm) * 4;
        for (TraceObserver* observer : sim_.observers_) observer->onDataAccess(addr, false);
        return addr;
    }
    [[nodiscard]] std::uint32_t storeAddr() {
        const auto addr = static_cast<std::uint32_t>(sim_.regs_[inst_->rs1] + inst_->imm);
        for (TraceObserver* observer : sim_.observers_) observer->onDataAccess(addr, true);
        return addr;
    }

    [[nodiscard]] bool condTaken() const {
        return branchTaken(inst_->op, sim_.regs_[inst_->rs1], sim_.regs_[inst_->rs2]);
    }
    [[nodiscard]] std::uint32_t directTarget() const {
        return sim_.pc_ + static_cast<std::uint32_t>(inst_->imm) * 4;
    }
    [[nodiscard]] std::uint32_t jalrTarget() const {
        return static_cast<std::uint32_t>(sim_.regs_[inst_->rs1] + inst_->imm) & ~3u;
    }

    [[nodiscard]] bool resolveJump(std::uint32_t pc, std::uint32_t target) {
        const auto prediction = sim_.predictor_.predictJump(pc);
        return sim_.predictor_.resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/false);
    }
    [[nodiscard]] bool resolveReturn(std::uint32_t pc, std::uint32_t target) {
        const auto prediction = sim_.predictor_.predictReturn(pc);
        return sim_.predictor_.resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/true);
    }
    [[nodiscard]] bool resolveBranch(std::uint32_t pc, bool taken, std::uint32_t target) {
        const auto prediction = sim_.predictor_.predictBranch(pc);
        return sim_.predictor_.resolve(prediction, pc, taken, target,
                                       /*chargeMispredict=*/true);
    }
    void pushReturnAddress(std::uint32_t addr) { sim_.predictor_.pushReturnAddress(addr); }

    void writeLui() { writeReg(inst_->rd, inst_->imm << 10); }
    void writeAlu() {
        const bool immediate = inst_->op >= Opcode::Addi && inst_->op <= Opcode::Slti;
        const std::int32_t b = immediate ? inst_->imm : sim_.regs_[inst_->rs2];
        writeReg(inst_->rd, aluOp(inst_->op, sim_.regs_[inst_->rs1], b));
    }
    void writeLink() { writeReg(inst_->rd, static_cast<std::int32_t>(sim_.pc_ + 4)); }
    void writeLoad(std::uint32_t addr) {
        const std::int32_t value = sim_.memory_.read(addr);
        writeReg(inst_->rd, value);
    }
    void doStore(std::uint32_t addr) { sim_.memory_.write(addr, sim_.regs_[inst_->rs2]); }

    void notifyIssue() {
        for (TraceObserver* observer : sim_.observers_) {
            observer->onInstruction(sim_.pc_, *inst_);
        }
    }
    void notifyControlFlow(bool taken, std::uint32_t nextPc, bool predictedCorrect) {
        for (TraceObserver* observer : sim_.observers_) {
            observer->onControlFlow(sim_.pc_, *inst_, taken, nextPc, predictedCorrect);
        }
    }

    void stepFallthrough() { sim_.pc_ += 4; }
    void stepBranch(bool taken, std::uint32_t target) {
        sim_.pc_ = taken ? target : sim_.pc_ + 4;
    }
    void stepJump(std::uint32_t target) { sim_.pc_ = target; }
    void stepJalr(std::uint32_t target) { sim_.pc_ = target; }

private:
    void writeReg(unsigned index, std::int32_t value) {
        if (index == kZeroRegister) return;
        sim_.regs_[index] = value;
    }

    Simulator& sim_;
    const Instruction* inst_ = nullptr;
};

Simulator::Simulator(const Image& image, const std::vector<DataSegment>& data,
                     InstrCacheScheme& icache, DataCacheScheme& dcache,
                     PipelineConfig config)
    : image_(&image),
      icache_(&icache),
      dcache_(&dcache),
      config_(config),
      predictor_(config.predictor) {
    memory_.load(image.baseAddr(), image.encodedWords());
    for (const auto& segment : data) {
        std::vector<std::int32_t> words(segment.words.begin(), segment.words.end());
        memory_.load(segment.baseAddr, words);
    }
    pc_ = image.entryAddr();
}

std::int32_t Simulator::reg(unsigned index) const {
    VC_EXPECTS(index < kNumRegisters);
    return regs_[index];
}

RunStats Simulator::run() {
    const obs::Span span("execute");
    ExecDriver driver(*this);
    stats_ = timing::runPipeline(driver, *icache_, *dcache_, config_);
    return stats_;
}

} // namespace voltcache
