/**
 * @file
 * Regenerates Figure 4 of the paper: the flow of the INTERP
 * instruction — the hit path straight into the PSDER sequence and the
 * miss path trapping through DTRPOINT into the dynamic translator.
 *
 * Two demonstrations:
 *  1. an annotated event trace of a short loop's first iterations,
 *     showing each DIR address missing exactly once and hitting
 *     thereafter;
 *  2. the amortization curve: binding cost per executed instruction as
 *     a function of how many times the loop re-executes — "the time
 *     spent in binding is spread out over those instructions" (sec. 4).
 */

#include <cstdio>
#include <sstream>

#include "bench_common.hh"
#include "support/table.hh"
#include "uhm/profile.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

void
printTrace()
{
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 3; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.");
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg = makeConfig(MachineKind::Dtb);
    cfg.profileEvents = true;
    Machine machine(*image, cfg);
    RunResult r = machine.run();

    std::printf("Event trace (3-iteration countdown loop, huffman DIR):\n"
                "first %d INTERP events --\n\n", 40);
    std::vector<InterpStep> steps = interpSteps(r.events);
    for (size_t i = 0; i < steps.size() && i < 40; ++i)
        std::printf("  %s\n", steps[i].toString().c_str());
    uint64_t misses = r.counter("dtb.misses");
    uint64_t hits = r.counter("dtb.hits");
    std::printf("\n%llu interp events total: %llu misses (one per "
                "distinct DIR instruction\nexecuted), %llu hits; output "
                "= %lld (expected 6)\n",
                static_cast<unsigned long long>(misses + hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(hits),
                static_cast<long long>(r.output.at(0)));
}

void
printAmortization()
{
    TextTable table(
        "Amortization of binding: average cycles per DIR instruction vs "
        "loop trip\ncount (the same loop body, re-executed)");
    table.setHeader({"iterations", "h_D", "dtb cycles/instr",
                     "conv cycles/instr", "dtb/conv"});
    for (uint32_t iters : {1u, 2u, 5u, 10u, 50u, 200u, 1000u}) {
        std::ostringstream src;
        src << "program t; var i, s; begin i := " << iters
            << "; s := 0; while i > 0 do s := s + i * i; i := i - 1; od;"
            << " write s; end.";
        DirProgram prog = hlr::compileSource(src.str());
        auto image = encodeDir(prog, EncodingScheme::Huffman);

        Machine dtb(*image, makeConfig(MachineKind::Dtb));
        Machine conv(*image, makeConfig(MachineKind::Conventional));
        RunResult rd = dtb.run();
        RunResult rc = conv.run();
        table.addRow({TextTable::num(uint64_t{iters}),
                      TextTable::num(rd.dtbHitRatio, 4),
                      TextTable::num(rd.avgInterpTime(), 2),
                      TextTable::num(rc.avgInterpTime(), 2),
                      TextTable::num(rd.avgInterpTime() /
                                     rc.avgInterpTime(), 3)});
    }
    table.print();
    std::printf(
        "\nShape check: at 1 iteration the DTB pays translation for "
        "nothing and loses;\nas the trip count grows the bound "
        "representation is reused, h_D -> 1, and the\nDTB settles at a "
        "fraction of the conventional cost.\n");
}

void
printMissPathCost()
{
    // Decompose the miss path of Figure 4: trap + fetch + decode +
    // generate/store, from a single cold pass (every instruction
    // missing once, no reuse).
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("echo").source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg = makeConfig(MachineKind::Dtb);
    Machine machine(*image, cfg);
    RunResult r = machine.run({0});

    TextTable table("Miss-path decomposition (cold straight-line code, "
                    "per translated instruction)");
    table.setHeader({"component", "cycles/translated instr"});
    double n = static_cast<double>(r.counter("dtb.misses"));
    table.addRow({"fetch DIR from level 2",
                  TextTable::num(r.breakdown.fetch / n, 2)});
    table.addRow({"decode + parse (d)",
                  TextTable::num(r.breakdown.decode / n, 2)});
    table.addRow({"generate + store PSDER (g)",
                  TextTable::num(r.breakdown.translate / n, 2)});
    table.print();
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 4: flow diagram of the INTERP instruction "
                "===\n\n");
    printTrace();
    std::printf("\n");
    printAmortization();
    std::printf("\n");
    printMissPathCost();
    return 0;
}
