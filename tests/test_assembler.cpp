// Tests for the vr32 text assembler: syntax coverage, error diagnostics,
// and end-to-end execution of assembled programs (including through the
// BBR tool chain).
#include <gtest/gtest.h>

#include "compiler/passes.h"
#include "cpu/simulator.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "linker/linker.h"
#include "schemes/conventional.h"

namespace voltcache {
namespace {

std::int32_t runSource(std::string_view source) {
    const Module module = assemble(source);
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    const RunStats stats = sim.run();
    EXPECT_TRUE(stats.halted);
    return sim.reg(1);
}

TEST(Assembler, MinimalProgram) {
    EXPECT_EQ(runSource(R"(
        .func main
            li r1, 42
            halt
    )"),
              42);
}

TEST(Assembler, ArithmeticAndComments) {
    EXPECT_EQ(runSource(R"(
        .func main          # comment styles
            li r1, 6        ; both work
            li r2, 7
            mul r1, r1, r2
            addi r1, r1, -2 # 40
            halt
    )"),
              40);
}

TEST(Assembler, LabelsAndBranches) {
    EXPECT_EQ(runSource(R"(
        .func main
            li r2, 5
            mv r1, r0
        loop:
            beq r2, r0, done
            add r1, r1, r2
            addi r2, r2, -1
            jmp loop
        done:
            halt
    )"),
              15);
}

TEST(Assembler, MemoryOperandsAndData) {
    EXPECT_EQ(runSource(R"(
        .func main
            li r2, 0x100000
            lw r1, 4(r2)
            sw r1, 8(r2)
            lw r3, 8(r2)
            add r1, r1, r3
            halt
        .data 0x100000
        .word 0 21 0
    )"),
              42);
}

TEST(Assembler, CallsAndEntryDirective) {
    EXPECT_EQ(runSource(R"(
        .func triple
            li r2, 3
            mul r1, r1, r2
            ret
        .func start
            li r1, 9
            call triple
            halt
        .entry start
    )"),
              27);
}

TEST(Assembler, LiteralPoolSyntax) {
    const Module module = assemble(R"(
        .func main
            ldl r1, =123456789
            ldl r2, =123456789
            add r1, r1, r2
            halt
    )");
    EXPECT_EQ(module.functions[0].sharedLiteralPool.size(), 1u); // deduped
    const LinkOutput linked = link(module);
    L2Cache l2;
    CacheOrganization org;
    ConventionalCache icache(org, l2);
    ConventionalCache dcache(org, l2);
    Simulator sim(linked.image, module.data, icache, dcache);
    (void)sim.run();
    EXPECT_EQ(sim.reg(1), 246913578);
}

TEST(Assembler, RegisterAliases) {
    EXPECT_EQ(runSource(R"(
        .func main
            li sp, 0x7FF000
            li r3, 77
            sw r3, -4(sp)
            lw r1, -4(sp)
            halt
    )"),
              77);
}

TEST(Assembler, SurvivesBbrToolchain) {
    Module module = assemble(R"(
        .func main
            li r1, 0
            li r2, 100
        loop:
            beq r2, r0, done
            add r1, r1, r2
            addi r2, r2, -1
            jmp loop
        done:
            halt
    )");
    Module transformed = module;
    applyBbrTransforms(transformed);
    const LinkOutput a = link(module);
    const LinkOutput b = link(transformed);
    auto exec = [](const LinkOutput& out, const Module& m) {
        L2Cache l2;
        CacheOrganization org;
        ConventionalCache icache(org, l2);
        ConventionalCache dcache(org, l2);
        Simulator sim(out.image, m.data, icache, dcache);
        (void)sim.run();
        return sim.reg(1);
    };
    EXPECT_EQ(exec(a, module), 5050);
    EXPECT_EQ(exec(b, transformed), 5050);
}

TEST(Assembler, RoundTripsWithDisassembler) {
    const Module module = assemble(R"(
        .func main
            addi r3, r0, 42
            sw r3, 0(r2)
            halt
    )");
    const std::string listing = disassemble(module);
    EXPECT_NE(listing.find("addi r3, r0, 42"), std::string::npos);
    EXPECT_NE(listing.find("sw r3, 0(r2)"), std::string::npos);
}

// ---- diagnostics ----

TEST(AssemblerErrors, UnknownMnemonicWithLineNumber) {
    try {
        (void)assemble(".func main\n    frobnicate r1\n    halt\n");
        FAIL();
    } catch (const AsmError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
    }
}

TEST(AssemblerErrors, BadRegister) {
    EXPECT_THROW((void)assemble(".func main\n add r99, r0, r0\n halt\n"), AsmError);
    EXPECT_THROW((void)assemble(".func main\n add rx, r0, r0\n halt\n"), AsmError);
}

TEST(AssemblerErrors, BadImmediate) {
    EXPECT_THROW((void)assemble(".func main\n addi r1, r0, banana\n halt\n"), AsmError);
}

TEST(AssemblerErrors, UnknownLabel) {
    EXPECT_THROW((void)assemble(".func main\n jmp nowhere\n halt\n"), AsmError);
}

TEST(AssemblerErrors, DuplicateLabel) {
    EXPECT_THROW((void)assemble(".func main\nx:\n nop\nx:\n halt\n"), AsmError);
}

TEST(AssemblerErrors, WrongOperandCount) {
    EXPECT_THROW((void)assemble(".func main\n add r1, r2\n halt\n"), AsmError);
}

TEST(AssemblerErrors, CodeOutsideFunction) {
    EXPECT_THROW((void)assemble("    addi r1, r0, 1\n"), AsmError);
}

TEST(AssemblerErrors, WordOutsideData) {
    EXPECT_THROW((void)assemble(".word 1 2 3\n"), AsmError);
}

TEST(AssemblerErrors, MalformedMemOperand) {
    EXPECT_THROW((void)assemble(".func main\n lw r1, r2\n halt\n"), AsmError);
    EXPECT_THROW((void)assemble(".func main\n lw r1, 4(r2\n halt\n"), AsmError);
}

TEST(AssemblerErrors, MissingEntryFunctionCaughtByValidate) {
    EXPECT_THROW((void)assemble(".func helper\n ret\n"), std::invalid_argument);
}

} // namespace
} // namespace voltcache
