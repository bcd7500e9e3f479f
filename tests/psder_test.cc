/**
 * @file
 * Tests for the PSDER level: short-format ISA, the micro-assembler,
 * the semantic-routine library and the staging/lowering spec.
 */

#include <gtest/gtest.h>

#include "dir/encoding.hh"
#include "hlr/compiler.hh"
#include "psder/micro_asm.hh"
#include "psder/routines.hh"
#include "psder/short_isa.hh"
#include "psder/staging.hh"
#include "support/logging.hh"
#include "workload/samples.hh"

namespace uhm
{
namespace
{

// ---- short-format ISA ------------------------------------------------------

TEST(ShortIsa, ToStringFlavors)
{
    EXPECT_EQ((ShortInstr{SOp::PUSH, SMode::Imm, 5}).toString(),
              "PUSH #5");
    EXPECT_EQ((ShortInstr{SOp::PUSH, SMode::Direct, 7}).toString(),
              "PUSH @7");
    EXPECT_EQ((ShortInstr{SOp::PUSH, SMode::Indirect, 7}).toString(),
              "PUSH @@7");
    EXPECT_EQ((ShortInstr{SOp::INTERP, SMode::Stack, 0}).toString(),
              "INTERP (stack)");
    EXPECT_EQ((ShortInstr{SOp::CALL, SMode::Imm, 3}).toString(),
              "CALL #3");
}

// ---- micro-assembler -------------------------------------------------------

TEST(MicroAsm, ForwardAndBackwardBranchesResolve)
{
    MicroAsm a("loop3");
    auto top = a.newLabel();
    auto out = a.newLabel();
    a.movi(1, 3)
     .bind(top)
     .brz(1, out)
     .addi(1, 1, -1)
     .br(top)
     .bind(out)
     .done();
    MicroRoutine r = a.finish();
    ASSERT_EQ(r.ops.size(), 5u);
    // brz at index 1 jumps to done at index 4: imm = 4 - 2 = 2.
    EXPECT_EQ(r.ops[1].imm, 2);
    // br at index 3 jumps to top at index 1: imm = 1 - 4 = -3.
    EXPECT_EQ(r.ops[3].imm, -3);
}

TEST(MicroAsm, UnboundLabelPanics)
{
    MicroAsm a("bad");
    auto l = a.newLabel();
    a.br(l).done();
    EXPECT_THROW(a.finish(), PanicError);
}

TEST(MicroAsm, MissingDonePanics)
{
    MicroAsm a("bad");
    a.movi(1, 0);
    EXPECT_THROW(a.finish(), PanicError);
}

TEST(MicroAsm, DoubleBindPanics)
{
    MicroAsm a("bad");
    auto l = a.newLabel();
    a.bind(l);
    EXPECT_THROW(a.bind(l), PanicError);
}

// ---- routine library -------------------------------------------------------

TEST(Routines, LibraryCoversSemanticOpcodes)
{
    MachineLayout layout;
    RoutineLibrary lib(layout);
    // Opcodes with real semantics must have routines.
    for (Op op : {Op::PUSHL, Op::STOREL, Op::ADDR, Op::LOADI, Op::STOREI,
                  Op::ADD, Op::SUB, Op::MUL, Op::DIV, Op::MOD, Op::NEG,
                  Op::AND, Op::OR, Op::XOR, Op::NOT, Op::SHL, Op::SHR,
                  Op::EQ, Op::NE, Op::LT, Op::LE, Op::GT, Op::GE,
                  Op::JZ, Op::JNZ, Op::CALLP, Op::ENTER, Op::RET,
                  Op::READ, Op::WRITE, Op::SEMWORK, Op::DUP, Op::DROP,
                  Op::SWAP}) {
        EXPECT_TRUE(lib.hasRoutine(op)) << opName(op);
    }
    // Pure control / no-op opcodes have none.
    for (Op op : {Op::PUSHC, Op::JMP, Op::NOP, Op::HALT})
        EXPECT_FALSE(lib.hasRoutine(op)) << opName(op);
}

TEST(Routines, EveryRoutineEndsWithDone)
{
    MachineLayout layout;
    RoutineLibrary lib(layout);
    for (size_t i = 0; i < numOps; ++i) {
        const MicroRoutine &r = lib.byId(static_cast<int64_t>(i));
        if (!r.empty())
            EXPECT_EQ(r.ops.back().op, MOp::DONE) << r.name;
    }
}

TEST(Routines, TotalFootprintIsModest)
{
    // The semantic routines must fit comfortably in level-1 memory
    // (section 3.3's constraint).
    MachineLayout layout;
    RoutineLibrary lib(layout);
    EXPECT_GT(lib.totalSizeWords(), 50u);
    EXPECT_LT(lib.totalSizeWords(), layout.level1Words / 4);
}

TEST(Routines, RoutineIdRoundTrips)
{
    MachineLayout layout;
    RoutineLibrary lib(layout);
    EXPECT_EQ(&lib.byId(RoutineLibrary::routineId(Op::ADD)),
              &lib.routine(Op::ADD));
}

// ---- staging ---------------------------------------------------------------

class StagingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = hlr::compileSource(
            workload::sampleByName("fib").source);
        image_ = encodeDir(prog_, EncodingScheme::Packed);
    }

    Staging
    stageAt(size_t index)
    {
        DecodeResult res = image_->decodeAt(image_->bitAddrOf(index));
        return stageInstruction(res.instr, *image_, res.index);
    }

    /** lowerStaging's output for @p st alone. */
    static std::vector<ShortInstr>
    lowered(const Staging &st)
    {
        std::vector<ShortInstr> code;
        lowerStaging(st, code);
        return code;
    }

    DirProgram prog_;
    std::unique_ptr<EncodedDir> image_;
};

TEST_F(StagingFixture, EveryInstructionLowersToInterpTerminated)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        Staging st = stageAt(i);
        std::vector<ShortInstr> code = lowered(st);
        ASSERT_FALSE(code.empty());
        EXPECT_EQ(code.back().op, SOp::INTERP) << "instr " << i;
        // INTERP appears exactly once, at the end.
        for (size_t k = 0; k + 1 < code.size(); ++k)
            EXPECT_NE(code[k].op, SOp::INTERP);
    }
}

TEST_F(StagingFixture, PushCountMatchesStagedValues)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        Staging st = stageAt(i);
        std::vector<ShortInstr> code = lowered(st);
        size_t pushes = 0, calls = 0;
        for (const ShortInstr &si : code) {
            pushes += si.op == SOp::PUSH;
            calls += si.op == SOp::CALL;
        }
        EXPECT_EQ(pushes, st.numPushes);
        EXPECT_EQ(calls, st.routine >= 0 ? 1u : 0u);
    }
}

TEST_F(StagingFixture, SequentialOpsTargetNextInstruction)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        const DirInstruction &ins = prog_.instrs[i];
        if (isControlTransfer(ins.op) || ins.op == Op::HALT)
            continue;
        Staging st = stageAt(i);
        EXPECT_EQ(st.next, NextKind::Imm);
        EXPECT_EQ(st.nextImm, image_->bitAddrOf(i + 1));
    }
}

TEST_F(StagingFixture, CallpPushesEntryAndReturnAddresses)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        if (prog_.instrs[i].op != Op::CALLP)
            continue;
        Staging st = stageAt(i);
        ASSERT_EQ(st.numPushes, 2u);
        const Contour &callee = prog_.procContour(
            static_cast<size_t>(prog_.instrs[i].operands[0]));
        EXPECT_EQ(static_cast<uint64_t>(st.pushes[0]),
                  image_->bitAddrOf(callee.entry));
        EXPECT_EQ(static_cast<uint64_t>(st.pushes[1]),
                  image_->bitAddrOf(i + 1));
        EXPECT_EQ(st.next, NextKind::Stack);
    }
}

TEST_F(StagingFixture, HaltLowersToDistinguishedAddress)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        if (prog_.instrs[i].op != Op::HALT)
            continue;
        Staging st = stageAt(i);
        EXPECT_EQ(st.next, NextKind::Halt);
        std::vector<ShortInstr> code = lowered(st);
        ASSERT_EQ(code.size(), 1u);
        EXPECT_EQ(code[0].op, SOp::INTERP);
        EXPECT_EQ(static_cast<uint64_t>(code[0].operand), haltBitAddr);
    }
}

TEST_F(StagingFixture, PushcStagesLiteralWithoutRoutine)
{
    for (size_t i = 0; i < prog_.size(); ++i) {
        if (prog_.instrs[i].op != Op::PUSHC)
            continue;
        Staging st = stageAt(i);
        ASSERT_EQ(st.numPushes, 1u);
        EXPECT_EQ(st.pushes[0], prog_.instrs[i].operands[0]);
        EXPECT_EQ(st.routine, -1);
    }
}

TEST_F(StagingFixture, AverageShortSequenceNearPaperS1)
{
    // The paper takes s1 = 3 short fetches per DIR instruction; our
    // lowering averages in the same neighbourhood (2..5).
    size_t total = 0;
    for (size_t i = 0; i < prog_.size(); ++i)
        total += lowered(stageAt(i)).size();
    double s1 = static_cast<double>(total) /
                static_cast<double>(prog_.size());
    EXPECT_GE(s1, 2.0);
    EXPECT_LE(s1, 5.0);
}

TEST(Staging, JumpNeedsNoRoutineOrPushes)
{
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(prog, EncodingScheme::Packed);
    bool saw_jmp = false;
    for (size_t i = 0; i < prog.size(); ++i) {
        if (prog.instrs[i].op != Op::JMP)
            continue;
        saw_jmp = true;
        DecodeResult res = image->decodeAt(image->bitAddrOf(i));
        Staging st = stageInstruction(res.instr, *image, i);
        EXPECT_EQ(st.numPushes, 0u);
        EXPECT_EQ(st.routine, -1);
        EXPECT_EQ(st.next, NextKind::Imm);
        EXPECT_EQ(st.nextImm, image->bitAddrOf(
            static_cast<size_t>(prog.instrs[i].operands[0])));
    }
    EXPECT_TRUE(saw_jmp);
}

} // anonymous namespace
} // namespace uhm
