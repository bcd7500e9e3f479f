/**
 * @file
 * Regenerates Figure 3 of the paper: the organization of the universal
 * host machine — rendered as measured cycle breakdowns that show what
 * each block of the figure contributes under the three organizations,
 * plus the section 6.2 placement question: should the DTB's buffer
 * array live in the level-1 or the level-2 memory?
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

void
breakdownTable(const char *name)
{
    const auto &sample = workload::sampleByName(name);
    DirProgram prog = hlr::compileSource(sample.source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    TextTable table(std::string("Cycle breakdown ('") + name +
                    "', huffman DIR): where each organization spends "
                    "its time\n(cycles per DIR instruction)");
    table.setHeader({"organization", "fetch", "decode", "stage",
                     "dispatch", "semantic", "translate", "total"});
    for (MachineKind kind : {MachineKind::Conventional,
                             MachineKind::Cached, MachineKind::Dtb}) {
        MachineConfig cfg = makeConfig(kind);
        Machine machine(*image, cfg);
        RunResult r = machine.run(sample.input);
        double n = static_cast<double>(r.dirInstrs);
        table.addRow({machineKindName(kind),
                      TextTable::num(r.breakdown.fetch / n, 2),
                      TextTable::num(r.breakdown.decode / n, 2),
                      TextTable::num(r.breakdown.stage / n, 2),
                      TextTable::num(r.breakdown.dispatch / n, 2),
                      TextTable::num(r.breakdown.semantic / n, 2),
                      TextTable::num(r.breakdown.translate / n, 2),
                      TextTable::num(r.avgInterpTime(), 2)});
    }
    table.print();
}

void
placementTable()
{
    // Section 6.2: "the address array and the buffer array would form
    // part of either the level-1 or level-2 memories. The former
    // alternative is preferable since the access time to the PSDER
    // instructions would be low..." We model level-2 placement by
    // raising tauD to tau2 for the DTB machine.
    workload::SyntheticConfig cfg;
    cfg.numLoops = 6;
    cfg.bodyInstrs = 40;
    cfg.iterations = 30;
    cfg.seed = 3;
    DirProgram prog = workload::generateSynthetic(cfg);

    TextTable table("DTB placement (section 6.2): buffer array in level-1"
                    " vs level-2 memory");
    table.setHeader({"placement", "tauD", "h_D", "cycles/instr"});
    for (auto [label, taud] :
         std::vector<std::pair<const char *, uint64_t>>{
             {"level 1 (preferred)", 2}, {"level 2", 10}}) {
        MachineConfig mc = makeConfig(MachineKind::Dtb);
        mc.timing.tauD = taud;
        RunResult r = runProgram(prog, EncodingScheme::Huffman, mc);
        table.addRow({label, TextTable::num(uint64_t{taud}),
                      TextTable::num(r.dtbHitRatio, 3),
                      TextTable::num(r.avgInterpTime(), 2)});
    }
    table.print();
}

void
sharedRoutinesTable()
{
    // Figure 3 shares IU1's semantic routines across organizations; the
    // semantic bucket must be identical per instruction.
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("matmul").source);
    auto image = encodeDir(prog, EncodingScheme::Packed);

    TextTable table("IU1 semantic routines are shared: per-instruction "
                    "semantic cycles (x) are\nidentical across "
                    "organizations");
    table.setHeader({"organization", "x (cycles/instr)",
                     "micro-ops retired"});
    for (MachineKind kind : {MachineKind::Conventional,
                             MachineKind::Cached, MachineKind::Dtb}) {
        Machine machine(*image, makeConfig(kind));
        RunResult r = machine.run();
        table.addRow({machineKindName(kind),
                      TextTable::num(r.measuredX, 3),
                      TextTable::num(r.counter("machine.micro_ops"))});
    }
    table.print();
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 3: organization of the universal host "
                "machine ===\n\n");
    breakdownTable("sieve");
    std::printf("\n");
    breakdownTable("queens");
    std::printf("\n");
    placementTable();
    std::printf("\n");
    sharedRoutinesTable();
    std::printf(
        "\nShape checks: the conventional organization pays fetch+decode "
        "on every\ninstruction; the cache removes most fetch cost but no "
        "decode; the DTB removes\nboth on hits and adds a small translate"
        " term; level-1 placement of the buffer\narray beats level-2.\n");
    return 0;
}
