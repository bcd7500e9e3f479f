/**
 * @file
 * Integration tests: cross-module properties that tie the whole system
 * to the paper's claims — measured-vs-model agreement, end-to-end shape
 * assertions, and randomized differential sweeps over synthetic
 * workloads.
 */

#include <gtest/gtest.h>

#include "analytic/model.hh"
#include "dir/asm.hh"
#include "dir/fusion.hh"
#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "psder/routines.hh"
#include "support/logging.hh"
#include "uhm/machine.hh"
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

/** Run @p prog on every machine kind, returning the results. */
std::vector<RunResult>
runAllKinds(const DirProgram &prog, EncodingScheme scheme,
            const std::vector<int64_t> &input = {})
{
    std::vector<RunResult> results;
    auto image = encodeDir(prog, scheme);
    for (MachineKind kind : {MachineKind::Conventional,
                             MachineKind::Cached, MachineKind::Dtb,
                             MachineKind::Dtb2, MachineKind::Tiered}) {
        Machine machine(*image, configFor(kind));
        results.push_back(machine.run(input));
    }
    return results;
}

// ---- measured vs analytic --------------------------------------------------

TEST(ModelAgreement, MeasuredT2WithinModelBallpark)
{
    // Plugging the *measured* parameters (d, x, g, hD, hc, s1, s2) of a
    // simulation into the section-7 T2 expression must land near the
    // simulated average interpretation time. The model ignores staging
    // and per-hit dispatch subtleties, so agree to 25%.
    workload::SyntheticConfig wcfg;
    wcfg.numLoops = 8;
    wcfg.bodyInstrs = 40;
    wcfg.iterations = 10;
    wcfg.outerRepeats = 5;
    wcfg.seed = 31;
    DirProgram prog = workload::generateSynthetic(wcfg);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    Machine conv(*image, configFor(MachineKind::Conventional));
    Machine dtb(*image, configFor(MachineKind::Dtb));
    RunResult r1 = conv.run();
    RunResult r2 = dtb.run();

    analytic::ModelParams p;
    p.d = r1.measuredD;
    p.x = r1.measuredX;
    p.g = r2.measuredG;
    p.hD = r2.dtbHitRatio;
    p.s1 = static_cast<double>(r2.counter("machine.short_instrs")) /
           static_cast<double>(r2.dirInstrs);
    p.s2 = static_cast<double>(r1.counter("machine.dir_fetch_refs")) /
           static_cast<double>(r1.dirInstrs);

    double predicted_t2 = analytic::t2(p);
    double measured_t2 = r2.avgInterpTime();
    EXPECT_NEAR(predicted_t2, measured_t2, 0.25 * measured_t2)
        << "model " << predicted_t2 << " vs sim " << measured_t2;

    double predicted_t1 = analytic::t1(p);
    double measured_t1 = r1.avgInterpTime();
    EXPECT_NEAR(predicted_t1, measured_t1, 0.25 * measured_t1);
}

TEST(ModelAgreement, MeasuredT4WithinModelBallpark)
{
    // Same contract as the T2 test, one tier up: the measured tier
    // parameters (hT, nT, s1T, g2, cT) plugged into the section-7-style
    // T4 expression must land near the simulated Tiered average
    // interpretation time, to the same 25% tolerance.
    workload::SyntheticConfig wcfg;
    wcfg.numLoops = 8;
    wcfg.bodyInstrs = 40;
    wcfg.iterations = 10;
    wcfg.outerRepeats = 5;
    wcfg.seed = 31;
    DirProgram prog = workload::generateSynthetic(wcfg);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    Machine conv(*image, configFor(MachineKind::Conventional));
    Machine tiered(*image, configFor(MachineKind::Tiered));
    RunResult r1 = conv.run();
    RunResult r4 = tiered.run();

    double trace_dir =
        static_cast<double>(r4.counter("tier.trace_dir_instrs"));
    double trace_short =
        static_cast<double>(r4.counter("tier.trace_short_instrs"));
    double dir_instrs = static_cast<double>(r4.dirInstrs);
    double compiled = static_cast<double>(
        r4.counters.at("tier.compiled_short_instrs"));
    ASSERT_GT(trace_dir, 0.0) << "workload never formed a trace";

    analytic::ModelParams p;
    p.d = r1.measuredD;
    p.x = r1.measuredX;
    p.g = r4.measuredG;
    p.hD = r4.dtbHitRatio;
    p.s2 = static_cast<double>(r1.counter("machine.dir_fetch_refs")) /
           static_cast<double>(r1.dirInstrs);
    // Cold instructions' short fetches per instruction: the aggregate
    // s1 minus the trace-resident share.
    p.s1 = (static_cast<double>(r4.counter("machine.short_instrs")) -
            trace_short) / (dir_instrs - trace_dir);
    p.hT = r4.traceCoverage;
    p.nT = r4.traceMeanIterLen;
    p.s1T = trace_short / trace_dir;
    p.g2 = r4.measuredG2;
    p.cT = compiled / dir_instrs;

    double predicted = analytic::t4(p);
    double measured = r4.avgInterpTime();
    EXPECT_NEAR(predicted, measured, 0.25 * measured)
        << "model " << predicted << " vs sim " << measured;
}

TEST(ModelAgreement, F2SignAndTrendMatchSimulation)
{
    // Raising decode cost must raise both the model's and the
    // simulator's F2.
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("collatz").source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    double prev_f2 = -1e9;
    for (uint64_t extra : {0u, 10u, 25u}) {
        MachineConfig c1 = configFor(MachineKind::Conventional);
        MachineConfig c2 = configFor(MachineKind::Dtb);
        c1.costs.extraDecodeCycles = extra;
        c2.costs.extraDecodeCycles = extra;
        Machine conv(*image, c1);
        Machine dtb(*image, c2);
        double t1 = conv.run().avgInterpTime();
        double t2 = dtb.run().avgInterpTime();
        double f2 = (t1 - t2) / t2 * 100.0;
        EXPECT_GT(f2, 0.0);
        EXPECT_GT(f2, prev_f2);
        prev_f2 = f2;
    }
}

// ---- end-to-end shape assertions -------------------------------------------

TEST(Shapes, DtbBeatsConventionalOnEveryLoopySample)
{
    for (const char *name : {"sieve", "fib", "qsort", "matmul", "queens",
                             "collatz", "power", "gcd"}) {
        const auto &sample = workload::sampleByName(name);
        DirProgram prog = hlr::compileSource(sample.source);
        auto image = encodeDir(prog, EncodingScheme::Huffman);
        Machine conv(*image, configFor(MachineKind::Conventional));
        Machine dtb(*image, configFor(MachineKind::Dtb));
        uint64_t t1 = conv.run(sample.input).cycles;
        uint64_t t2 = dtb.run(sample.input).cycles;
        EXPECT_LT(t2, t1) << name;
    }
}

TEST(Shapes, HitRatioMonotoneInCapacity)
{
    workload::SyntheticConfig wcfg;
    wcfg.numLoops = 10;
    wcfg.bodyInstrs = 45;
    wcfg.iterations = 8;
    wcfg.outerRepeats = 6;
    wcfg.seed = 17;
    DirProgram prog = workload::generateSynthetic(wcfg);

    double prev = -1.0;
    for (uint64_t cap : {256u, 1024u, 4096u, 16384u}) {
        MachineConfig cfg = configFor(MachineKind::Dtb);
        cfg.dtb.capacityBytes = cap;
        RunResult r = runProgram(prog, EncodingScheme::Huffman, cfg);
        EXPECT_GE(r.dtbHitRatio + 1e-12, prev) << cap;
        prev = r.dtbHitRatio;
    }
    EXPECT_GT(prev, 0.9);
}

TEST(Shapes, Degree4NearlyFullAssociativity)
{
    workload::SyntheticConfig wcfg;
    wcfg.numLoops = 10;
    wcfg.bodyInstrs = 45;
    wcfg.iterations = 8;
    wcfg.outerRepeats = 6;
    wcfg.seed = 23;
    DirProgram prog = workload::generateSynthetic(wcfg);

    auto hit_ratio = [&](unsigned assoc) {
        MachineConfig cfg = configFor(MachineKind::Dtb);
        cfg.dtb.assoc = assoc;
        return runProgram(prog, EncodingScheme::Huffman, cfg).dtbHitRatio;
    };
    double h4 = hit_ratio(4);
    double hfull = hit_ratio(0);
    EXPECT_NEAR(h4, hfull, 0.03);
    EXPECT_LT(hit_ratio(1), hfull + 1e-12);
}

TEST(Shapes, EncodingSizeMonotoneOverAllSamples)
{
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = hlr::compileSource(sample.source);
        auto expanded = encodeDir(prog, EncodingScheme::Expanded);
        auto packed = encodeDir(prog, EncodingScheme::Packed);
        auto contextual = encodeDir(prog, EncodingScheme::Contextual);
        auto huffman = encodeDir(prog, EncodingScheme::Huffman);
        auto quantized = encodeDir(prog, EncodingScheme::Quantized);
        EXPECT_LT(packed->bitSize(), expanded->bitSize()) << sample.name;
        EXPECT_LE(contextual->bitSize(), packed->bitSize())
            << sample.name;
        EXPECT_LT(huffman->bitSize(), packed->bitSize()) << sample.name;
        // Quantization costs a little space over optimal Huffman but
        // must stay below packed.
        EXPECT_GE(quantized->bitSize(), huffman->bitSize())
            << sample.name;
        EXPECT_LT(quantized->bitSize(), packed->bitSize()) << sample.name;
    }
}

TEST(Shapes, QuantizedDecodesCheaperThanHuffman)
{
    // The whole point of restricting lengths: fewer decode operations.
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("sieve").source);
    auto huffman = encodeDir(prog, EncodingScheme::Huffman);
    auto quantized = encodeDir(prog, EncodingScheme::Quantized);
    uint64_t huff_ops = 0, quant_ops = 0;
    for (size_t i = 0; i < prog.size(); ++i) {
        huff_ops += huffman->decodeAt(huffman->bitAddrOf(i)).cost.total();
        quant_ops +=
            quantized->decodeAt(quantized->bitAddrOf(i)).cost.total();
    }
    EXPECT_LT(quant_ops, huff_ops);
}

// ---- randomized differential sweeps ----------------------------------------

class SyntheticFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SyntheticFuzz, AllMachinesAllEncodingsAgree)
{
    workload::SyntheticConfig wcfg;
    uint64_t seed = GetParam();
    wcfg.seed = seed;
    wcfg.numLoops = 2 + seed % 5;
    wcfg.bodyInstrs = 15 + seed % 40;
    wcfg.iterations = 5 + seed % 20;
    wcfg.semworkDensity = 0.1;
    wcfg.semworkWeight = 3;
    DirProgram prog = workload::generateSynthetic(wcfg);

    std::vector<int64_t> reference;
    bool first = true;
    for (EncodingScheme scheme : allEncodingSchemes()) {
        for (RunResult &r : runAllKinds(prog, scheme)) {
            if (first) {
                reference = r.output;
                first = false;
            } else {
                ASSERT_EQ(r.output, reference)
                    << "seed " << seed << " scheme "
                    << encodingName(scheme);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticFuzz,
                         ::testing::Range<uint64_t>(100, 120));

class SampleSweep : public ::testing::TestWithParam<const char *>
{};

TEST_P(SampleSweep, HlrDirAndAllMachinesAgreeUnderStressedConfigs)
{
    // Tiny DTB, tiny cache, odd unit sizes: correctness must be
    // configuration-independent.
    const auto &sample = workload::sampleByName(GetParam());
    hlr::AstProgram ast = hlr::parse(sample.source);
    std::vector<int64_t> reference =
        hlr::interpretHlr(ast, sample.input).output;
    DirProgram prog = hlr::compile(ast);
    auto image = encodeDir(prog, EncodingScheme::PairHuffman);

    MachineConfig stressed = configFor(MachineKind::Dtb);
    stressed.dtb.capacityBytes = 128;
    stressed.dtb.unitShortInstrs = 2;
    stressed.dtb.assoc = 2;
    Machine machine(*image, stressed);
    EXPECT_EQ(machine.run(sample.input).output, reference);

    MachineConfig tiny_cache = configFor(MachineKind::Cached);
    tiny_cache.icache.capacityBytes = 32;
    Machine cached(*image, tiny_cache);
    EXPECT_EQ(cached.run(sample.input).output, reference);
}

INSTANTIATE_TEST_SUITE_P(Samples, SampleSweep,
                         ::testing::Values("sieve", "fib", "ack", "gcd",
                                           "collatz", "power", "matmul",
                                           "qsort", "queens", "nest",
                                           "echo"));

// ---- level-1 residency budget (Figure 1 / section 3.3) ---------------------

TEST(Level1Budget, InterpreterRoutinesAndDtbFitTheFastLevel)
{
    // "The size of the semantic routines and interpreter is important
    // since they must fit into the faster, smaller level if high speed
    // interpretation is to be achieved."
    MachineLayout layout;
    RoutineLibrary lib(layout);
    uint64_t level1_bits = layout.level1Words * 64;

    for (const char *name : {"sieve", "qsort", "queens"}) {
        DirProgram prog = hlr::compileSource(
            workload::sampleByName(name).source);
        for (EncodingScheme scheme : allEncodingSchemes()) {
            auto image = encodeDir(prog, scheme);
            DtbConfig dtb;
            uint64_t resident =
                lib.totalSizeWords() * 64 +      // semantic routines
                image->metadataBits() +          // decoder tables
                dtb.capacityBytes * 8 +          // DTB buffer array
                (layout.stackWords +             // operand stack
                 layout.maxDepth + 1) * 64;      // display
            EXPECT_LT(resident, level1_bits)
                << name << "/" << encodingName(scheme);
        }
    }
}

// ---- determinism of encodings ----------------------------------------------

TEST(Determinism, EncodingIsByteStable)
{
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("qsort").source);
    for (EncodingScheme scheme : allEncodingSchemes()) {
        auto a = encodeDir(prog, scheme);
        auto b = encodeDir(prog, scheme);
        ASSERT_EQ(a->bitSize(), b->bitSize()) << encodingName(scheme);
        for (size_t i = 0; i < prog.size(); ++i) {
            EXPECT_EQ(a->bitAddrOf(i), b->bitAddrOf(i));
            DecodeResult ra = a->decodeAt(a->bitAddrOf(i));
            DecodeResult rb = b->decodeAt(b->bitAddrOf(i));
            EXPECT_EQ(ra.instr, rb.instr);
        }
    }
}

// ---- fused programs survive the assembler ----------------------------------

TEST(FusedAsm, RaisedProgramsRoundTripThroughAssembly)
{
    DirProgram prog = raiseSemanticLevel(hlr::compileSource(
        workload::sampleByName("sieve").source));
    DirProgram reparsed = parseDirAssembly(toDirAssembly(prog));
    ASSERT_EQ(reparsed.size(), prog.size());
    for (size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(reparsed.instrs[i], prog.instrs[i]);

    MachineConfig cfg = configFor(MachineKind::Dtb);
    EXPECT_EQ(runProgram(reparsed, EncodingScheme::Huffman, cfg).output,
              std::vector<int64_t>{168});
}

// ---- amortization (the Figure 4 crossover) ---------------------------------

TEST(Amortization, DtbCrossoverWithReuse)
{
    auto run_loop = [&](int iters, MachineKind kind) {
        std::string src = "program t; var i, s; begin i := " +
            std::to_string(iters) +
            "; s := 0; while i > 0 do s := s + i; i := i - 1; od; "
            "write s; end.";
        DirProgram prog = hlr::compileSource(src);
        return runProgram(prog, EncodingScheme::Huffman,
                          configFor(kind));
    };
    // One iteration: translation cost with no reuse; the DTB loses.
    EXPECT_GT(run_loop(1, MachineKind::Dtb).avgInterpTime(),
              run_loop(1, MachineKind::Conventional).avgInterpTime());
    // Many iterations: binding amortized; the DTB wins decisively.
    EXPECT_LT(run_loop(500, MachineKind::Dtb).avgInterpTime(),
              0.75 * run_loop(500, MachineKind::Conventional)
                  .avgInterpTime());
}

} // anonymous namespace
} // namespace uhm
