/**
 * @file
 * Tests for the universal host machine: per-opcode semantics, the three
 * machine organizations, cycle accounting, the Figure 4 INTERP flow and
 * the per-layout semantic-routine library.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "support/logging.hh"
#include "support/pool.hh"
#include "uhm/machine.hh"
#include "uhm/run_image.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm
{
namespace
{

MachineConfig
configFor(MachineKind kind)
{
    MachineConfig cfg;
    cfg.kind = kind;
    return cfg;
}

std::vector<int64_t>
runOn(const DirProgram &prog, MachineKind kind,
      EncodingScheme scheme = EncodingScheme::Packed,
      const std::vector<int64_t> &input = {})
{
    return runProgram(prog, scheme, configFor(kind), input).output;
}

// ---- per-opcode semantics --------------------------------------------------

/**
 * Build "push the inputs, run one opcode, write the stack residue"
 * programs for every value-producing opcode and check the result on
 * every machine kind.
 */
struct OpCase
{
    Op op;
    std::vector<int64_t> inputs;
    std::vector<int64_t> expected; // written from top of stack down
};

class OpcodeSemantics
    : public ::testing::TestWithParam<std::tuple<OpCase, MachineKind>>
{};

TEST_P(OpcodeSemantics, ProducesExpectedValues)
{
    const auto &[c, kind] = GetParam();
    DirProgram p;
    p.name = "opcase";
    p.numGlobals = 2;
    Contour main_ctr;
    main_ctr.name = "<main>";
    main_ctr.depth = 1;
    main_ctr.slotsAtDepth = {2, 0};
    p.contours.push_back(main_ctr);
    auto emit = [&](DirInstruction ins) {
        p.instrs.push_back(ins);
        p.contourOf.push_back(0);
        return p.instrs.size() - 1;
    };
    p.entry = emit({Op::ENTER, 1, 0, 0});
    p.contours[0].entry = p.entry;
    for (int64_t v : c.inputs)
        emit({Op::PUSHC, v});
    emit({c.op});
    for (size_t i = 0; i < c.expected.size(); ++i)
        emit({Op::WRITE});
    emit({Op::HALT});
    p.validate();

    EXPECT_EQ(runOn(p, kind), c.expected)
        << opName(c.op) << " on " << machineKindName(kind);
}

std::vector<OpCase>
opCases()
{
    return {
        {Op::ADD, {7, 5}, {12}},
        {Op::SUB, {7, 5}, {2}},
        {Op::MUL, {-3, 5}, {-15}},
        {Op::DIV, {17, 5}, {3}},
        {Op::MOD, {17, 5}, {2}},
        {Op::NEG, {9}, {-9}},
        {Op::AND, {12, 10}, {8}},
        {Op::OR, {12, 10}, {14}},
        {Op::XOR, {12, 10}, {6}},
        {Op::NOT, {0}, {-1}},
        {Op::SHL, {3, 4}, {48}},
        {Op::SHR, {-16, 2}, {-4}},
        {Op::EQ, {4, 4}, {1}},
        {Op::NE, {4, 4}, {0}},
        {Op::LT, {3, 4}, {1}},
        {Op::LE, {4, 4}, {1}},
        {Op::GT, {3, 4}, {0}},
        {Op::GE, {3, 4}, {0}},
        {Op::DUP, {6}, {6, 6}},
        {Op::SWAP, {1, 2}, {1, 2}}, // swap then write pops 1 first
        {Op::SEMWORK, {}, {}},      // SEMWORK needs an operand; below
    };
}

std::string
opCaseName(const ::testing::TestParamInfo<std::tuple<OpCase, MachineKind>>
               &info)
{
    return std::string(opName(std::get<0>(info.param).op)) + "_" +
           machineKindName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllMachines, OpcodeSemantics,
    ::testing::Combine(
        ::testing::ValuesIn([] {
            auto cases = opCases();
            cases.pop_back(); // SEMWORK handled separately
            return cases;
        }()),
        ::testing::Values(MachineKind::Conventional, MachineKind::Cached,
                          MachineKind::Dtb)),
    opCaseName);

class MachineKinds : public ::testing::TestWithParam<MachineKind>
{};

TEST_P(MachineKinds, StoreAndLoadLocals)
{
    DirProgram p = hlr::compileSource(
        "program t; var a, b; begin a := 11; b := a + 1; "
        "write a; write b; end.");
    EXPECT_EQ(runOn(p, GetParam()), (std::vector<int64_t>{11, 12}));
}

TEST_P(MachineKinds, ArraysThroughAddrLoadiStorei)
{
    DirProgram p = hlr::compileSource(
        "program t; var a[5], i; begin i := 0; "
        "while i < 5 do a[i] := i * i; i := i + 1; od; "
        "write a[0] + a[1] + a[2] + a[3] + a[4]; end.");
    EXPECT_EQ(runOn(p, GetParam()), std::vector<int64_t>{30});
}

TEST_P(MachineKinds, SemworkSpinsWithoutSideEffects)
{
    DirProgram p;
    p.name = "semwork";
    p.numGlobals = 1;
    Contour main_ctr;
    main_ctr.name = "<main>";
    main_ctr.depth = 1;
    main_ctr.slotsAtDepth = {1, 0};
    p.contours.push_back(main_ctr);
    auto emit = [&](DirInstruction ins) {
        p.instrs.push_back(ins);
        p.contourOf.push_back(0);
        return p.instrs.size() - 1;
    };
    p.entry = emit({Op::ENTER, 1, 0, 0});
    p.contours[0].entry = p.entry;
    emit({Op::PUSHC, 5});
    emit({Op::SEMWORK, 100});
    emit({Op::WRITE});
    emit({Op::HALT});
    p.validate();

    MachineConfig cfg = configFor(GetParam());
    auto image = encodeDir(p, EncodingScheme::Packed);
    Machine machine(*image, cfg);
    RunResult with = machine.run();
    EXPECT_EQ(with.output, std::vector<int64_t>{5});
    // The spin must cost hundreds of semantic cycles.
    EXPECT_GT(with.breakdown.semantic, 400u);
}

TEST_P(MachineKinds, RecursionAndUpLevelAddressing)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("nest").source);
    EXPECT_EQ(runOn(p, GetParam()), std::vector<int64_t>{427});
}

TEST_P(MachineKinds, ReadConsumesInputInOrder)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("echo").source);
    EXPECT_EQ(runOn(p, GetParam(), EncodingScheme::Packed, {2, 40, 2}),
              (std::vector<int64_t>{80, 4, 42}));
}

TEST_P(MachineKinds, ExhaustedInputReadsZero)
{
    DirProgram p = hlr::compileSource(
        "program t; var v; begin read v; write v + 1; end.");
    EXPECT_EQ(runOn(p, GetParam()), std::vector<int64_t>{1});
}

TEST_P(MachineKinds, DivisionByZeroIsFatal)
{
    DirProgram p = hlr::compileSource(
        "program t; var a; begin a := 0; write 3 / a; end.");
    auto image = encodeDir(p, EncodingScheme::Packed);
    Machine machine(*image, configFor(GetParam()));
    EXPECT_THROW(machine.run(), FatalError);
}

TEST_P(MachineKinds, RunawayProgramHitsInstructionBudget)
{
    DirProgram p = hlr::compileSource(
        "program t; var a; begin while 1 do a := a + 1; od; end.");
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg = configFor(GetParam());
    cfg.maxDirInstrs = 10'000;
    Machine machine(*image, cfg);
    EXPECT_THROW(machine.run(), FatalError);
}

TEST_P(MachineKinds, DeterministicAcrossRepeatedRuns)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("sieve").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine machine(*image, configFor(GetParam()));
    RunResult a = machine.run();
    RunResult b = machine.run();
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dirInstrs, b.dirInstrs);
}

TEST_P(MachineKinds, BreakdownSumsToTotal)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("fib").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine machine(*image, configFor(GetParam()));
    RunResult r = machine.run();
    EXPECT_EQ(r.breakdown.total(), r.cycles);
    EXPECT_GT(r.breakdown.fetch, 0u);
    EXPECT_GT(r.breakdown.semantic, 0u);
    EXPECT_GT(r.dirInstrs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MachineKinds,
    ::testing::Values(MachineKind::Conventional, MachineKind::Cached,
                      MachineKind::Dtb, MachineKind::Dtb2,
                      MachineKind::Tiered),
    [](const ::testing::TestParamInfo<MachineKind> &info) {
        return std::string(machineKindName(info.param));
    });

// ---- differential: all samples x encodings x machines vs the HLR interpreter

struct DiffCase
{
    std::string sample;
    EncodingScheme scheme;
    MachineKind kind;
};

class Differential : public ::testing::TestWithParam<DiffCase>
{};

TEST_P(Differential, MatchesDirectHlrInterpretation)
{
    const DiffCase &c = GetParam();
    const auto &sample = workload::sampleByName(c.sample);
    hlr::AstProgram ast = hlr::parse(sample.source);
    std::vector<int64_t> reference =
        hlr::interpretHlr(ast, sample.input).output;

    DirProgram prog = hlr::compile(ast);
    std::vector<int64_t> got =
        runOn(prog, c.kind, c.scheme, sample.input);
    EXPECT_EQ(got, reference);
    if (!sample.expected.empty()) {
        EXPECT_EQ(got, sample.expected);
    }
}

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    for (const auto &sample : workload::samplePrograms()) {
        for (EncodingScheme scheme : allEncodingSchemes()) {
            for (MachineKind kind : {MachineKind::Conventional,
                                     MachineKind::Cached,
                                     MachineKind::Dtb,
                                     MachineKind::Dtb2,
                                     MachineKind::Tiered}) {
                cases.push_back({sample.name, scheme, kind});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential, ::testing::ValuesIn(diffCases()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        std::string name = info.param.sample;
        name += "_";
        name += encodingName(info.param.scheme);
        name += "_";
        name += machineKindName(info.param.kind);
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// ---- the Figure 4 INTERP flow ----------------------------------------------

TEST(InterpFlow, FirstTouchMissesThenHits)
{
    DirProgram p = hlr::compileSource(
        "program t; var i; begin i := 3; "
        "while i > 0 do i := i - 1; od; write i; end.");
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg = configFor(MachineKind::Dtb);
    cfg.profileEvents = true;
    Machine machine(*image, cfg);
    RunResult r = machine.run();

    ASSERT_EQ(r.eventsDropped, 0u);
    auto first = [&r](obs::EventKind kind) {
        return std::find_if(r.events.begin(), r.events.end(),
                            [kind](const obs::Event &e) {
                                return e.kind == kind;
                            });
    };
    // The very first INTERP must miss, then translate.
    ASSERT_NE(first(obs::EventKind::DtbMiss), r.events.end());
    EXPECT_LT(first(obs::EventKind::DtbMiss),
              first(obs::EventKind::Translate));
    // Later loop iterations must hit.
    size_t hits = 0, misses = 0;
    for (const obs::Event &e : r.events) {
        hits += e.kind == obs::EventKind::DtbHit;
        misses += e.kind == obs::EventKind::DtbMiss;
    }
    EXPECT_GT(hits, 0u);
    // Each distinct instruction misses exactly once (DTB large enough).
    EXPECT_EQ(misses, static_cast<size_t>(r.counter("dtb.misses")));
    EXPECT_EQ(misses, static_cast<size_t>(r.counter("dtb.inserts")));
}

TEST(InterpFlow, LoopRereachesUnityHitRatio)
{
    // "If the hit ratio in the DTB were unity, as it will be while the
    // DIR program is in a tight loop..."
    DirProgram p = hlr::compileSource(
        "program t; var i, s; begin i := 2000; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.");
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine machine(*image, configFor(MachineKind::Dtb));
    RunResult r = machine.run();
    EXPECT_EQ(r.output, std::vector<int64_t>{2001000});
    EXPECT_GT(r.dtbHitRatio, 0.99);
}

TEST(InterpFlow, MissChargesDecodeAndTranslate)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine machine(*image, configFor(MachineKind::Dtb));
    RunResult r = machine.run();
    EXPECT_GT(r.breakdown.decode, 0u);
    EXPECT_GT(r.breakdown.translate, 0u);
    EXPECT_GT(r.measuredG, 0.0);
    // Decode happened only on misses.
    EXPECT_EQ(r.counter("dtb.misses") + r.counter("dtb.hits"),
              r.dirInstrs);
}

TEST(InterpFlow, ConventionalDecodesEveryInstruction)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine conventional(*image, configFor(MachineKind::Conventional));
    Machine dtb(*image, configFor(MachineKind::Dtb));
    RunResult rc = conventional.run();
    RunResult rd = dtb.run();
    // Same work, same instruction count...
    EXPECT_EQ(rc.dirInstrs, rd.dirInstrs);
    // ...but the DTB machine decodes a small fraction of it.
    EXPECT_LT(rd.breakdown.decode, rc.breakdown.decode / 5);
    // And wins overall on this loopy workload.
    EXPECT_LT(rd.cycles, rc.cycles);
}

TEST(InterpFlow, SmallDtbStillExecutesCorrectly)
{
    // A DTB with a handful of entries thrashes but stays correct.
    DirProgram p = hlr::compileSource(
        workload::sampleByName("sieve").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg = configFor(MachineKind::Dtb);
    cfg.dtb.capacityBytes = 64; // 8 units
    Machine machine(*image, cfg);
    RunResult r = machine.run();
    EXPECT_EQ(r.output, std::vector<int64_t>{168});
    EXPECT_LT(r.dtbHitRatio, 0.9);
}

TEST(InterpFlow, RejectedTranslationsStillExecute)
{
    // unit 1 + no overflow: every multi-instruction translation is
    // rejected, so the machine re-translates forever — and still gets
    // the right answer.
    DirProgram p = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg = configFor(MachineKind::Dtb);
    cfg.dtb.unitShortInstrs = 1;
    cfg.dtb.allowOverflow = false;
    Machine machine(*image, cfg);
    RunResult r = machine.run();
    EXPECT_EQ(r.output, std::vector<int64_t>{111});
    EXPECT_GT(r.counter("dtb.rejects"), 0u);
}

TEST(OpcodeCounts, ConventionalCountsSumToInstructions)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    Machine machine(*image, configFor(MachineKind::Conventional));
    RunResult r = machine.run();
    ASSERT_EQ(r.opcodeCounts.size(), numOps);
    uint64_t total = 0;
    for (uint64_t c : r.opcodeCounts)
        total += c;
    EXPECT_EQ(total, r.dirInstrs);
    EXPECT_GT(r.opcodeCounts[static_cast<size_t>(Op::PUSHL)], 0u);
    EXPECT_EQ(r.opcodeCounts[static_cast<size_t>(Op::HALT)], 1u);
}

TEST(OpcodeCounts, DtbLeavesThemEmpty)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("gcd").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    Machine machine(*image, configFor(MachineKind::Dtb));
    EXPECT_TRUE(machine.run().opcodeCounts.empty());
}

// ---- two-level dynamic translation (Dtb2) ----------------------------------

TEST(TwoLevelDtb, TightLoopPromotesIntoFirstLevel)
{
    DirProgram p = hlr::compileSource(
        "program t; var i, s; begin i := 3000; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.");
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine machine(*image, configFor(MachineKind::Dtb2));
    RunResult r = machine.run();
    EXPECT_EQ(r.output, std::vector<int64_t>{4501500});
    // The loop body fits the 512-byte first level: nearly every fetch
    // is served at tau1.
    EXPECT_GT(r.dtbL1HitRatio, 0.99);
}

TEST(TwoLevelDtb, BeatsSingleLevelOnTightLoops)
{
    DirProgram p = hlr::compileSource(
        "program t; var i, s; begin i := 5000; s := 0; "
        "while i > 0 do s := s + i * i; i := i - 1; od; write s; end.");
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine one(*image, configFor(MachineKind::Dtb));
    Machine two(*image, configFor(MachineKind::Dtb2));
    RunResult r1 = one.run();
    RunResult r2 = two.run();
    EXPECT_EQ(r1.output, r2.output);
    // The first level serves short fetches at tau1 instead of tauD.
    EXPECT_LT(r2.cycles, r1.cycles);
}

TEST(TwoLevelDtb, CorrectUnderFirstLevelThrash)
{
    // A first level of a few entries thrashes; answers stay right.
    DirProgram p = hlr::compileSource(
        workload::sampleByName("sieve").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg = configFor(MachineKind::Dtb2);
    cfg.dtbL1.capacityBytes = 64;
    cfg.dtbL1.assoc = 2;
    Machine machine(*image, cfg);
    RunResult r = machine.run();
    EXPECT_EQ(r.output, std::vector<int64_t>{168});
    EXPECT_LT(r.dtbL1HitRatio, 0.9);
}

// ---- machine configuration errors ------------------------------------------

TEST(MachineErrors, TooDeepNestingIsFatal)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("nest").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg;
    cfg.layout.maxDepth = 2; // program needs 3
    EXPECT_THROW(Machine(*image, cfg), FatalError);
}

TEST(MachineErrors, StackOutsideLevel1IsFatal)
{
    // The operand stack must sit wholly in level-1 memory; a layout
    // that spills it into level 2 is refused at construction.
    DirProgram p = hlr::compileSource(
        workload::sampleByName("fib").source);
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg;
    cfg.layout.stackWords =
        cfg.layout.level1Words - cfg.layout.stackBase + 1;
    EXPECT_THROW(Machine(*image, cfg), FatalError);
    cfg.layout.stackWords -= 1; // exactly fills level 1: accepted
    Machine machine(*image, cfg);
    EXPECT_FALSE(machine.run().output.empty());
}

TEST(MachineErrors, OperandStackOverflowIsFatal)
{
    // Unbounded recursion with a pending left operand per activation
    // overflows the operand stack quickly, on every organization and in
    // both instantiations of its run loop.
    DirProgram p = hlr::compileSource(
        "program t; func f(n); begin return 1 + f(n + 1); end; "
        "begin write f(0); end.");
    auto image = encodeDir(p, EncodingScheme::Packed);
    for (MachineKind kind :
         {MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
          MachineKind::Dtb2, MachineKind::Tiered}) {
        for (bool events : {false, true}) {
            SCOPED_TRACE(std::string(machineKindName(kind)) +
                         (events ? "/events" : ""));
            MachineConfig cfg;
            cfg.kind = kind;
            cfg.profileEvents = events;
            cfg.layout.stackWords = 128;
            cfg.layout.rasDepth = 1 << 20;
            Machine machine(*image, cfg);
            try {
                machine.run();
                ADD_FAILURE() << "the run did not fail";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "operand stack overflow"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(MachineErrors, RasOverflowIsFatal)
{
    DirProgram p = hlr::compileSource(
        "program t; proc f(); begin call f(); end; "
        "begin call f(); end.");
    auto image = encodeDir(p, EncodingScheme::Packed);
    MachineConfig cfg;
    cfg.layout.rasDepth = 64;
    Machine machine(*image, cfg);
    EXPECT_THROW(machine.run(), FatalError);
}

// ---- cross-machine equivalence of cycle-independent state ------------------

TEST(CrossMachine, IdenticalOutputsDifferentCycleProfiles)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("qsort").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);

    Machine conv(*image, configFor(MachineKind::Conventional));
    Machine cached(*image, configFor(MachineKind::Cached));
    Machine dtb(*image, configFor(MachineKind::Dtb));
    RunResult rc = conv.run();
    RunResult rh = cached.run();
    RunResult rd = dtb.run();

    EXPECT_EQ(rc.output, rh.output);
    EXPECT_EQ(rc.output, rd.output);
    EXPECT_EQ(rc.dirInstrs, rh.dirInstrs);
    EXPECT_EQ(rc.dirInstrs, rd.dirInstrs);
    // Semantic work (x) is identical across organizations.
    EXPECT_EQ(rc.breakdown.semantic, rh.breakdown.semantic);
    EXPECT_EQ(rc.breakdown.semantic, rd.breakdown.semantic);
    // Fetch/decode profiles differ.
    EXPECT_NE(rc.cycles, rd.cycles);
}

// ---- the semantic-routine library, shared per layout -----------------------

bool
sameRoutines(const FlatRoutines &a, const FlatRoutines &b)
{
    return a.code == b.code && a.imm == b.imm && a.entry == b.entry;
}

FlatRoutines
freshRoutines(const MachineLayout &layout)
{
    return FlatRoutines::build(RoutineLibrary(layout), numOps);
}

TEST(RoutineLibraryMemo, OneLayoutSharesOneLibrary)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("fib").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    const Machine a(*image, configFor(MachineKind::Dtb));
    const Machine b(*image, configFor(MachineKind::Conventional));
    EXPECT_EQ(&a.routines(), &b.routines());
    EXPECT_TRUE(sameRoutines(a.routines(), freshRoutines(MachineLayout{})));
}

TEST(RoutineLibraryMemo, ADifferentLayoutGetsItsOwnLibrary)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("qsort").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    Machine dflt(*image, configFor(MachineKind::Dtb));
    RunResult want = dflt.run();

    // stackWords does not enter the routines, dispBase does; either way
    // the layout is a different key, and the run is unchanged.
    MachineConfig small = configFor(MachineKind::Dtb);
    small.layout.stackWords = 1024;
    MachineConfig moved = configFor(MachineKind::Dtb);
    moved.layout.dispBase = 20;
    for (const MachineConfig &cfg : {small, moved}) {
        Machine m(*image, cfg);
        EXPECT_NE(&m.routines(), &dflt.routines());
        EXPECT_TRUE(sameRoutines(m.routines(), freshRoutines(cfg.layout)));
        RunResult got = m.run();
        EXPECT_EQ(got.output, want.output);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.breakdown.semantic, want.breakdown.semantic);
    }
    Machine again(*image, small);
    Machine other(*image, small);
    EXPECT_EQ(&again.routines(), &other.routines());
    EXPECT_FALSE(sameRoutines(Machine(*image, moved).routines(),
                              dflt.routines()));
}

TEST(RoutineLibraryMemo, ConcurrentBuildsShareOneLibrary)
{
    DirProgram p = hlr::compileSource(
        workload::sampleByName("fib").source);
    auto image = encodeDir(p, EncodingScheme::Huffman);
    // A layout no other test uses, so the workers race to build it.
    MachineConfig cfg;
    cfg.layout.stackWords = 1536;
    const MachineKind kinds[] = {
        MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
        MachineKind::Dtb2, MachineKind::Tiered};
    std::vector<const FlatRoutines *> seen(20, nullptr);
    {
        ThreadPool pool(4);
        for (size_t i = 0; i < seen.size(); ++i) {
            pool.submit([&, i] {
                MachineConfig mine = cfg;
                mine.kind = kinds[i % 5];
                Machine m(*image, mine);
                seen[i] = &m.routines();
            });
        }
        pool.wait();
    }
    for (const FlatRoutines *flat : seen)
        EXPECT_EQ(flat, seen[0]);
    EXPECT_EQ(&Machine(*image, cfg).routines(), seen[0]);
}

TEST(RunImage, OneLoweringForEveryForm)
{
    // One DIR instruction has three PSDER forms: the translation the
    // DTB holds, the conventional path's lowered staging (the same code,
    // fetched for free) and a tier-2 trace step (the code without its
    // INTERP, a stack successor becoming a guard). lowerStep lowers all
    // three; each must stage what the instruction's staging says and
    // charge its own fetch cost per short instruction. Unequal tau1 and
    // tauD keep a charge from passing under the wrong factor.
    const uint64_t tau1 = 3, tau_d = 7;
    std::shared_ptr<const FlatRoutines> flat =
        FlatRoutines::forLayout(MachineLayout{});
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = hlr::compileSource(sample.source);
        auto image = encodeDir(prog, EncodingScheme::Huffman);
        DynamicTranslator translator(*image);
        for (size_t i = 0; i < image->numInstrs(); ++i) {
            SCOPED_TRACE(std::string(sample.name) + " #" +
                         std::to_string(i));
            uint64_t pc = image->bitAddrOf(i);
            DecodeResult res = image->decodeAt(pc);
            Staging st = stageInstruction(res.instr, *image, res.index);
            std::vector<ShortInstr> conv_code;
            lowerStaging(st, conv_code);
            std::span<const ShortInstr> dtb_code =
                translator.translate(pc).code;
            ASSERT_FALSE(dtb_code.empty());
            ASSERT_EQ(dtb_code.back().op, SOp::INTERP);

            tier::Trace trace;
            tier::TraceStep &ts = trace.steps.emplace_back();
            ts.body.assign(dtb_code.begin(), dtb_code.end() - 1);
            ts.guarded = st.next == NextKind::Stack;
            ts.staticNext = st.next == NextKind::Halt ? haltBitAddr
                                                      : st.nextImm;
            ts.dirAddrs = {pc};
            FastTrace ft;
            lowerFastTrace(trace, *flat, tau_d, tau1, ft);
            LoweredStep dtb, conv;
            lowerStep(dtb_code, *flat, tau_d, tau1, dtb);
            lowerStep(conv_code, *flat, 0, tau1, conv);

            struct Form
            {
                const char *name;
                const LoweredStep &step;
                uint64_t fetchCost;
                size_t shorts;
            };
            const Form forms[] = {
                {"dtb", dtb, tau_d, dtb_code.size()},
                {"conventional", conv, 0, conv_code.size()},
                {"trace", ft.steps[0], tau_d, dtb_code.size() - 1},
            };
            for (const Form &f : forms) {
                SCOPED_TRACE(f.name);
                const LoweredStep &ls = f.step;
                ASSERT_EQ(ls.numPushes, st.numPushes);
                for (uint32_t k = 0; k < ls.numPushes; ++k)
                    EXPECT_EQ(ls.pushes[k], st.pushes[k]);
                EXPECT_EQ(ls.routineEntry,
                          st.routine < 0 ? -1
                              : flat->entry[static_cast<size_t>(
                                    st.routine)]);
                EXPECT_EQ(ls.stackNext, st.next == NextKind::Stack);
                if (st.next == NextKind::Imm) {
                    EXPECT_EQ(ls.nextImm, st.nextImm);
                } else if (st.next == NextKind::Halt) {
                    EXPECT_EQ(ls.nextImm, haltBitAddr);
                }
                uint64_t pop = ls.stackNext ? 1 : 0;
                EXPECT_EQ(ls.shortCount, f.shorts);
                EXPECT_EQ(ls.dispatchAdd,
                          f.fetchCost * f.shorts + pop * tau1);
                EXPECT_EQ(ls.stageAdd, st.numPushes * tau1);
                EXPECT_EQ(ls.level1Add, st.numPushes + pop);
            }
        }
    }
}

} // anonymous namespace
} // namespace uhm
