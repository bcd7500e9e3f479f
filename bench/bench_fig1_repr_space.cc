/**
 * @file
 * Regenerates Figure 1 of the paper: the two-dimensional space of
 * program representations.
 *
 * Vertical axis (level of representation): HLR interpreted directly ->
 * DIR interpreted on the host -> PSDER resident in an effectively
 * infinite DTB. Horizontal axis (degree of encoding): expanded ->
 * packed -> contextual -> huffman -> pair-huffman.
 *
 * For every point we report the program size, the resident
 * interpreter/decoder metadata, and the measured execution time —
 * Figure 1's annotations made quantitative: moving away from the origin
 * shrinks the program, grows the interpreter, and (along the encoding
 * axis) slows interpretation while (up the level axis) speeding it.
 */

#include <cstdio>

#include "bench_common.hh"
#include "dir/fusion.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "support/table.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

void
printEncodingAxis(const char *name)
{
    const auto &sample = workload::sampleByName(name);
    DirProgram prog = hlr::compileSource(sample.source);

    TextTable table(std::string("Encoding axis ('") + name +
                    "'): static size falls, decode metadata and decode "
                    "time rise");
    table.setHeader({"encoding", "program bits", "bits/instr",
                     "decoder metadata bits", "conv. T (cycles/instr)",
                     "measured d"});
    for (EncodingScheme scheme : allEncodingSchemes()) {
        auto image = encodeDir(prog, scheme);
        MachineConfig cfg = makeConfig(MachineKind::Conventional);
        Machine machine(*image, cfg);
        RunResult r = machine.run(sample.input);
        table.addRow({encodingName(scheme),
                      TextTable::num(image->bitSize()),
                      TextTable::num(image->meanInstrBits(), 1),
                      TextTable::num(image->metadataBits()),
                      TextTable::num(r.avgInterpTime(), 2),
                      TextTable::num(r.measuredD, 1)});
    }
    table.print();
}

void
printLevelAxis(const char *name)
{
    const auto &sample = workload::sampleByName(name);
    hlr::AstProgram ast = hlr::parse(sample.source);
    DirProgram prog = hlr::compile(ast);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    TextTable table(std::string("Level axis ('") + name +
                    "', huffman static form): binding work falls as the "
                    "representation\ntightens");
    table.setHeader({"level of representation", "per-stmt/instr cost",
                     "note"});

    // HLR: direct interpretation with associative name lookup.
    hlr::HlrRunResult hr = hlr::interpretHlr(ast, sample.input);
    double searches_per_stmt =
        static_cast<double>(hr.nameSearchSteps) /
        static_cast<double>(hr.stmts);
    table.addRow({"HLR (direct, associative lookups)",
                  TextTable::num(searches_per_stmt, 2) +
                      " table-search steps/stmt",
                  "binding redone every statement"});

    // DIR: conventional interpretation.
    MachineConfig conv = makeConfig(MachineKind::Conventional);
    Machine conv_machine(*image, conv);
    RunResult rc = conv_machine.run(sample.input);
    table.addRow({"DIR (conventional UHM)",
                  TextTable::num(rc.avgInterpTime(), 2) + " cycles/instr",
                  "binding redone every instruction"});

    // Raised-level DIR: fewer, larger instructions (dir/fusion.hh).
    DirProgram raised = raiseSemanticLevel(prog);
    auto raised_image = encodeDir(raised, EncodingScheme::Huffman);
    Machine raised_machine(*raised_image, conv);
    RunResult rr = raised_machine.run(sample.input);
    double per_base_instr = rc.dirInstrs == 0 ? 0.0 :
        static_cast<double>(rr.cycles) /
        static_cast<double>(rc.dirInstrs);
    table.addRow({"raised DIR (fused opcodes, conventional)",
                  TextTable::num(per_base_instr, 2) +
                      " cycles/base-instr",
                  "bigger opcode vocabulary, fewer dispatches"});

    // PSDER: a DTB big enough to hold the whole translation.
    MachineConfig dtb_cfg = makeConfig(MachineKind::Dtb);
    dtb_cfg.dtb.capacityBytes = 1 << 20;
    Machine dtb_machine(*image, dtb_cfg);
    RunResult rd = dtb_machine.run(sample.input);
    table.addRow({"PSDER (resident in DTB, hD ~ 1)",
                  TextTable::num(rd.avgInterpTime(), 2) + " cycles/instr",
                  "binding persists across executions"});
    table.print();
    std::printf("DTB hit ratio in the PSDER row: %.4f\n",
                rd.dtbHitRatio);
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 1: the space of program representations ===\n"
                "\n");
    for (const char *name : {"sieve", "qsort"}) {
        printEncodingAxis(name);
        std::printf("\n");
    }
    for (const char *name : {"sieve", "fib"}) {
        printLevelAxis(name);
        std::printf("\n");
    }
    std::printf(
        "Shape checks (the figure's annotations): along the encoding axis"
        " program size\ndecreases monotonically while decoder metadata "
        "and measured d increase; along\nthe level axis, execution cost "
        "per unit of work falls as binding persistence\ngrows.\n");
    return 0;
}
