/**
 * @file
 * Tests for the DIR level: ISA metadata, program validation and all
 * five encodings (round-trip, addressing, size ordering, decode costs).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dir/encoding.hh"
#include "dir/isa.hh"
#include "dir/program.hh"
#include "hlr/compiler.hh"
#include "support/logging.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm
{
namespace
{

/** A small hand-built program touching several operand kinds. */
DirProgram
tinyProgram()
{
    DirProgram p;
    p.name = "tiny";
    p.numGlobals = 4;
    Contour main_ctr;
    main_ctr.name = "<main>";
    main_ctr.depth = 1;
    main_ctr.slotsAtDepth = {4, 0};
    p.contours.push_back(main_ctr);

    auto emit = [&](DirInstruction ins) {
        p.instrs.push_back(ins);
        p.contourOf.push_back(0);
        return p.instrs.size() - 1;
    };
    p.entry = emit({Op::ENTER, 1, 0, 0});
    emit({Op::PUSHC, 7});
    emit({Op::STOREL, 0, 0});
    emit({Op::PUSHL, 0, 0});
    emit({Op::PUSHC, -3});
    emit({Op::ADD});
    emit({Op::WRITE});
    emit({Op::PUSHC, 0});
    emit({Op::JZ, 10});
    emit({Op::NOP});
    emit({Op::HALT});
    p.contours[0].entry = p.entry;
    return p;
}

// ---- ISA metadata ----------------------------------------------------------

TEST(Isa, EveryOpcodeHasMetadata)
{
    for (size_t i = 0; i < numOps; ++i) {
        Op op = static_cast<Op>(i);
        EXPECT_NE(opName(op), nullptr);
        EXPECT_STRNE(opName(op), "");
        EXPECT_LE(opArity(op), 4u);
    }
}

TEST(Isa, ControlTransferClassification)
{
    EXPECT_TRUE(isControlTransfer(Op::JMP));
    EXPECT_TRUE(isControlTransfer(Op::JZ));
    EXPECT_TRUE(isControlTransfer(Op::JNZ));
    EXPECT_TRUE(isControlTransfer(Op::CALLP));
    EXPECT_TRUE(isControlTransfer(Op::RET));
    EXPECT_TRUE(isControlTransfer(Op::HALT));
    EXPECT_FALSE(isControlTransfer(Op::ADD));
    EXPECT_FALSE(isControlTransfer(Op::PUSHL));
    EXPECT_FALSE(isControlTransfer(Op::ENTER));
}

TEST(Isa, StackDeltas)
{
    EXPECT_EQ(opInfo(Op::PUSHC).stackDelta, 1);
    EXPECT_EQ(opInfo(Op::ADD).stackDelta, -1);
    EXPECT_EQ(opInfo(Op::STOREI).stackDelta, -2);
    EXPECT_EQ(opInfo(Op::DUP).stackDelta, 1);
    EXPECT_EQ(opInfo(Op::NOP).stackDelta, 0);
}

TEST(Isa, InstructionToString)
{
    EXPECT_EQ(DirInstruction(Op::PUSHL, 1, 3).toString(), "PUSHL 1 3");
    EXPECT_EQ(DirInstruction(Op::ADD).toString(), "ADD");
    EXPECT_EQ(DirInstruction(Op::PUSHC, -42).toString(), "PUSHC -42");
}

// ---- program validation ----------------------------------------------------

TEST(Program, TinyProgramValidates)
{
    EXPECT_NO_THROW(tinyProgram().validate());
}

TEST(Program, OutOfBoundsTargetPanics)
{
    DirProgram p = tinyProgram();
    p.instrs[8].operands[0] = 999;
    EXPECT_THROW(p.validate(), PanicError);
}

TEST(Program, OutOfBoundsSlotPanics)
{
    DirProgram p = tinyProgram();
    p.instrs[2] = {Op::STOREL, 0, 4}; // only slots 0..3 exist
    EXPECT_THROW(p.validate(), PanicError);
}

TEST(Program, OutOfBoundsDepthPanics)
{
    DirProgram p = tinyProgram();
    p.instrs[3] = {Op::PUSHL, 2, 0}; // main is depth 1
    EXPECT_THROW(p.validate(), PanicError);
}

TEST(Program, BadProcIndexPanics)
{
    DirProgram p = tinyProgram();
    p.instrs[9] = {Op::CALLP, 0}; // no procedures declared
    EXPECT_THROW(p.validate(), PanicError);
}

TEST(Program, ContourTableMismatchPanics)
{
    DirProgram p = tinyProgram();
    p.contours[0].slotsAtDepth = {4}; // wrong arity
    EXPECT_THROW(p.validate(), PanicError);
}

TEST(Program, OperandMaxima)
{
    DirProgram p = tinyProgram();
    auto maxima = p.operandMaxima();
    // Largest immediate is 7 -> zigzag 14.
    EXPECT_EQ(maxima[static_cast<size_t>(OperandKind::Imm)], 14u);
    EXPECT_EQ(maxima[static_cast<size_t>(OperandKind::Target)], 10u);
}

TEST(Program, DisassembleMentionsOpcodesAndName)
{
    DirProgram p = tinyProgram();
    std::string dis = p.disassemble();
    EXPECT_NE(dis.find("tiny"), std::string::npos);
    EXPECT_NE(dis.find("PUSHC"), std::string::npos);
    EXPECT_NE(dis.find("HALT"), std::string::npos);
}

TEST(Program, MaxDepth)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("nest").source);
    EXPECT_EQ(p.maxDepth(), 3u); // main(1) / outer(2) / inner(3)
}

// ---- encodings -------------------------------------------------------------

struct EncodingCase
{
    const char *programName;
    EncodingScheme scheme;
};

std::string
encodingCaseName(const ::testing::TestParamInfo<EncodingCase> &info)
{
    std::string name = std::string(info.param.programName) + "_" +
        encodingName(info.param.scheme);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

DirProgram
programByName(const std::string &name)
{
    if (name == "tiny")
        return tinyProgram();
    if (name == "synthetic") {
        workload::SyntheticConfig cfg;
        cfg.seed = 99;
        return workload::generateSynthetic(cfg);
    }
    return hlr::compileSource(workload::sampleByName(name).source);
}

class EncodingRoundTrip : public ::testing::TestWithParam<EncodingCase>
{};

TEST_P(EncodingRoundTrip, DecodeRecoversEveryInstruction)
{
    DirProgram prog = programByName(GetParam().programName);
    auto image = encodeDir(prog, GetParam().scheme);
    ASSERT_EQ(image->numInstrs(), prog.size());
    for (size_t i = 0; i < prog.size(); ++i) {
        DecodeResult res = image->decodeAt(image->bitAddrOf(i));
        EXPECT_EQ(res.instr, prog.instrs[i]) << "at index " << i;
        EXPECT_EQ(res.index, i);
    }
}

TEST_P(EncodingRoundTrip, SequentialDecodeChainsAddresses)
{
    DirProgram prog = programByName(GetParam().programName);
    auto image = encodeDir(prog, GetParam().scheme);
    uint64_t addr = 0;
    for (size_t i = 0; i < prog.size(); ++i) {
        EXPECT_EQ(addr, image->bitAddrOf(i));
        DecodeResult res = image->decodeAt(addr);
        addr = res.nextBitAddr;
    }
    EXPECT_EQ(addr, image->bitSize());
}

TEST_P(EncodingRoundTrip, IndexOfBitAddrIsInverse)
{
    DirProgram prog = programByName(GetParam().programName);
    auto image = encodeDir(prog, GetParam().scheme);
    for (size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(image->indexOfBitAddr(image->bitAddrOf(i)), i);
}

TEST_P(EncodingRoundTrip, DecodeCostsArePositive)
{
    DirProgram prog = programByName(GetParam().programName);
    auto image = encodeDir(prog, GetParam().scheme);
    for (size_t i = 0; i < prog.size(); ++i) {
        DecodeResult res = image->decodeAt(image->bitAddrOf(i));
        EXPECT_GT(res.cost.total(), 0u);
    }
}

std::vector<EncodingCase>
allEncodingCases()
{
    std::vector<EncodingCase> cases;
    for (const char *name : {"tiny", "synthetic", "sieve", "fib",
                             "qsort", "nest"}) {
        for (EncodingScheme scheme : allEncodingSchemes())
            cases.push_back({name, scheme});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(ProgramsAndSchemes, EncodingRoundTrip,
                         ::testing::ValuesIn(allEncodingCases()),
                         encodingCaseName);

class EncodingSizes : public ::testing::TestWithParam<const char *>
{};

TEST_P(EncodingSizes, OrderingMatchesDegreeOfEncoding)
{
    DirProgram prog = programByName(GetParam());
    auto expanded = encodeDir(prog, EncodingScheme::Expanded);
    auto packed = encodeDir(prog, EncodingScheme::Packed);
    auto contextual = encodeDir(prog, EncodingScheme::Contextual);
    auto huffman = encodeDir(prog, EncodingScheme::Huffman);
    auto pair = encodeDir(prog, EncodingScheme::PairHuffman);

    // The paper's Figure 1: program size falls as encoding deepens.
    EXPECT_LT(packed->bitSize(), expanded->bitSize());
    EXPECT_LE(contextual->bitSize(), packed->bitSize());
    EXPECT_LT(huffman->bitSize(), packed->bitSize());
    // Pair-context coding beats single-symbol coding up to integer-code
    // granularity; allow 5% slack.
    EXPECT_LE(static_cast<double>(pair->bitSize()),
              static_cast<double>(huffman->bitSize()) * 1.05);
}

TEST_P(EncodingSizes, MetadataGrowsWithEncodingDegree)
{
    DirProgram prog = programByName(GetParam());
    auto expanded = encodeDir(prog, EncodingScheme::Expanded);
    auto huffman = encodeDir(prog, EncodingScheme::Huffman);
    auto pair = encodeDir(prog, EncodingScheme::PairHuffman);
    EXPECT_EQ(expanded->metadataBits(), 0u);
    EXPECT_GT(huffman->metadataBits(), 0u);
    EXPECT_GT(pair->metadataBits(), huffman->metadataBits());
}

INSTANTIATE_TEST_SUITE_P(Programs, EncodingSizes,
                         ::testing::Values("tiny", "synthetic", "sieve",
                                           "fib", "qsort", "matmul",
                                           "queens"));

TEST(Encoding, ExpandedCostIsOnePerField)
{
    DirProgram p = tinyProgram();
    auto image = encodeDir(p, EncodingScheme::Expanded);
    for (size_t i = 0; i < p.size(); ++i) {
        DecodeResult res = image->decodeAt(image->bitAddrOf(i));
        EXPECT_EQ(res.cost.fieldExtracts, 1 + opArity(p.instrs[i].op));
        EXPECT_EQ(res.cost.treeEdges, 0u);
        EXPECT_EQ(res.cost.tableLookups, 0u);
    }
}

TEST(Encoding, HuffmanChargesTreeEdges)
{
    DirProgram p = tinyProgram();
    auto image = encodeDir(p, EncodingScheme::Huffman);
    uint64_t total_edges = 0;
    for (size_t i = 0; i < p.size(); ++i)
        total_edges += image->decodeAt(image->bitAddrOf(i)).cost.treeEdges;
    EXPECT_GT(total_edges, 0u);
}

TEST(Encoding, ContextualChargesTableLookups)
{
    DirProgram p = tinyProgram();
    auto image = encodeDir(p, EncodingScheme::Contextual);
    // PUSHL has depth+slot fields -> contour width lookups.
    DecodeResult res = image->decodeAt(image->bitAddrOf(3));
    EXPECT_EQ(res.instr.op, Op::PUSHL);
    EXPECT_GE(res.cost.tableLookups, 2u);
}

TEST(Encoding, MisalignedAddressPanics)
{
    DirProgram p = tinyProgram();
    auto image = encodeDir(p, EncodingScheme::Packed);
    EXPECT_THROW(image->indexOfBitAddr(image->bitAddrOf(1) + 1),
                 PanicError);
}

TEST(Encoding, NamesAreDistinct)
{
    std::set<std::string> names;
    for (EncodingScheme s : allEncodingSchemes())
        names.insert(encodingName(s));
    EXPECT_EQ(names.size(), numEncodingSchemes);
}

// ---- per-call vs. bulk decode ----------------------------------------------

/** Field-by-field DecodeResult equality with a readable failure label. */
void
expectSameDecode(const DecodeResult &a, const DecodeResult &b,
                 const char *what, const char *scheme,
                 const std::string &program, size_t i)
{
    std::string where = std::string(what) + " " + scheme + "/" +
                        program + " instr " + std::to_string(i);
    EXPECT_EQ(a.instr.op, b.instr.op) << where;
    EXPECT_EQ(a.instr.operands, b.instr.operands) << where;
    EXPECT_EQ(a.nextBitAddr, b.nextBitAddr) << where;
    EXPECT_EQ(a.index, b.index) << where;
    EXPECT_EQ(a.cost.fieldExtracts, b.cost.fieldExtracts) << where;
    EXPECT_EQ(a.cost.treeEdges, b.cost.treeEdges) << where;
    EXPECT_EQ(a.cost.tableLookups, b.cost.tableLookups) << where;
}

/**
 * decodeAt() is each encoder's one decode routine and decodeAll() the
 * bulk loop over it: over the whole sample corpus, under every
 * encoding scheme, both yield the same instructions, successors and
 * simulated decode costs. (The table decoder
 * under the Huffman schemes is proved bit-exact with the tree walk in
 * support_test's Huffman.TableDecodeMatchesTreeWalk.)
 */
TEST(Encoding, DecodeAtAndDecodeAllAgree)
{
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = hlr::compileSource(sample.source);
        for (EncodingScheme scheme : allEncodingSchemes()) {
            auto image = encodeDir(prog, scheme);
            const char *name = encodingName(scheme);

            std::vector<DecodeResult> all;
            image->decodeAll(all);
            ASSERT_EQ(all.size(), image->numInstrs());

            for (size_t i = 0; i < all.size(); ++i) {
                DecodeResult at = image->decodeAt(image->bitAddrOf(i));
                expectSameDecode(at, all[i], "decodeAt", name,
                                 sample.name, i);
            }
        }
    }
}

TEST(Encoding, HuffmanCompactionIsSubstantial)
{
    // The Wilner/Hehner claim: encoded programs are 25-75% smaller than
    // the expanded form. Our Huffman images should compress at least 4x
    // against full-word expansion.
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("sieve").source);
    auto expanded = encodeDir(prog, EncodingScheme::Expanded);
    auto huffman = encodeDir(prog, EncodingScheme::Huffman);
    EXPECT_LT(huffman->bitSize() * 4, expanded->bitSize());
}

} // anonymous namespace
} // namespace uhm
