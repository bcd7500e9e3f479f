/**
 * @file
 * bench_dispatch — host wall-clock of the execution engine.
 *
 * Times whole simulations over the sample corpus plus the synthetic
 * grid workload, one row per machine kind (conventional, cached, dtb,
 * dtb2, tiered), and reports host nanoseconds per simulated DIR
 * instruction. The untimed first pass doubles as warm-up and as the
 * source of the simulated totals.
 *
 * Emits a human-readable table on stdout and a JSON document (schema
 * in docs/BENCHMARKS.md) to --out=<file>, default BENCH_dispatch.json.
 * The "sim" section is deterministic (simulated cycles and instruction
 * counts); CI recomputes it and diffs against the committed file. The
 * wall-clock metrics are machine-dependent; compare runs with
 * scripts/bench_compare.py.
 *
 * Usage: bench_dispatch [--out=FILE] [--iters=N]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

/** Keep run results observable so the timed loops cannot be elided. */
volatile uint64_t g_sink = 0;

double
nowNs()
{
    using namespace std::chrono;
    return static_cast<double>(
        duration_cast<nanoseconds>(
            steady_clock::now().time_since_epoch()).count());
}

/** One corpus program, compiled and encoded once for all rows. The
 *  image references the program, so the point owns both at stable
 *  addresses. */
struct CorpusPoint
{
    std::string label;
    std::unique_ptr<DirProgram> program;
    std::unique_ptr<EncodedDir> image;
    std::vector<int64_t> input;
};

std::vector<CorpusPoint>
buildCorpus(uint64_t seed)
{
    std::vector<CorpusPoint> corpus;
    for (const auto &sample : workload::samplePrograms()) {
        CorpusPoint pt;
        pt.label = sample.name;
        pt.program = std::make_unique<DirProgram>(
            hlr::compileSource(sample.source));
        pt.image = encodeDir(*pt.program, EncodingScheme::Huffman);
        pt.input = sample.input;
        corpus.push_back(std::move(pt));
    }
    // Synthetic grid points spanning the low end of the paper's
    // semantic-work axis x (the same axis steeredGrid() sweeps) with
    // the standard grid working set, which deliberately overflows the
    // default DTB: interpretation-bound, translation-heavy behavior.
    for (uint32_t weight : {0u, 4u, 16u}) {
        CorpusPoint synth;
        synth.label = "synthetic-w" + std::to_string(weight);
        synth.program =
            std::make_unique<DirProgram>(gridWorkload(weight, seed));
        synth.image = encodeDir(*synth.program, EncodingScheme::Huffman);
        corpus.push_back(std::move(synth));
    }
    // Semantics-bound points at the high end of the axis: a compact,
    // DTB-resident loop nest whose time is dominated by SEMWORK spins.
    // These are the programs the paper's section 7 model calls
    // semantics-bound (large x), where interpretation overhead is
    // amortized per spin.
    for (uint32_t weight : {64u, 256u}) {
        workload::SyntheticConfig cfg;
        cfg.numLoops = 4;
        cfg.bodyInstrs = 24;
        cfg.iterations = 50;
        cfg.outerRepeats = 60;
        cfg.semworkDensity = 0.3;
        cfg.semworkWeight = weight;
        cfg.numGlobals = 24;
        cfg.seed = seed;
        CorpusPoint spin;
        spin.label = "spin-w" + std::to_string(weight);
        spin.program = std::make_unique<DirProgram>(
            workload::generateSynthetic(cfg));
        spin.image = encodeDir(*spin.program, EncodingScheme::Huffman);
        corpus.push_back(std::move(spin));
    }
    return corpus;
}

struct KindRow
{
    const char *kind = "";
    uint64_t dirInstrs = 0;   ///< per corpus pass
    uint64_t simCycles = 0;   ///< per corpus pass
    double nsPerInstr = 0;
};

KindRow
timeKind(MachineKind kind, const std::vector<CorpusPoint> &corpus,
         unsigned iters)
{
    KindRow row;
    row.kind = machineKindName(kind);

    // One machine per point, reused across reps — beginRun resets all
    // simulated state, so every rep re-simulates the whole run (cold
    // DTB included) and reps are identical by construction.
    std::vector<std::unique_ptr<Machine>> machines;
    MachineConfig cfg = makeConfig(kind);
    for (const CorpusPoint &pt : corpus)
        machines.push_back(std::make_unique<Machine>(*pt.image, cfg));

    // Warm-up pass; it also yields the simulated totals.
    for (size_t i = 0; i < corpus.size(); ++i) {
        RunResult r = machines[i]->run(corpus[i].input);
        row.dirInstrs += r.dirInstrs;
        row.simCycles += r.cycles;
    }

    double t0 = nowNs();
    for (unsigned it = 0; it < iters; ++it)
        for (size_t i = 0; i < corpus.size(); ++i)
            g_sink = g_sink + machines[i]->run(corpus[i].input).cycles;
    double t1 = nowNs();
    row.nsPerInstr =
        (t1 - t0) / (static_cast<double>(row.dirInstrs) * iters);
    return row;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string out_path = "BENCH_dispatch.json";
    unsigned iters = 30;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(std::strlen("--out="));
        else if (arg.rfind("--iters=", 0) == 0)
            iters = static_cast<unsigned>(
                std::stoul(arg.substr(std::strlen("--iters="))));
        else
            fatal("unknown option '%s'", arg.c_str());
    }

    std::vector<CorpusPoint> corpus = buildCorpus(1978);
    const std::vector<MachineKind> kinds = {
        MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
        MachineKind::Dtb2,         MachineKind::Tiered,
    };

    std::printf("bench_dispatch: host wall-clock, %u iters, "
                "%zu corpus programs\n\n", iters, corpus.size());
    std::printf("%-14s %12s %10s\n", "kind", "dir instrs", "ns/instr");

    std::vector<KindRow> rows;
    double total_ns = 0;
    uint64_t total_instrs = 0;
    for (MachineKind kind : kinds) {
        rows.push_back(timeKind(kind, corpus, iters));
        const KindRow &r = rows.back();
        std::printf("%-14s %12llu %10.2f\n", r.kind,
                    static_cast<unsigned long long>(r.dirInstrs),
                    r.nsPerInstr);
        total_ns += r.nsPerInstr * static_cast<double>(r.dirInstrs);
        total_instrs += r.dirInstrs;
    }
    double corpus_ns = total_ns / static_cast<double>(total_instrs);
    std::printf("\ncorpus-wide    %12llu %10.2f\n",
                static_cast<unsigned long long>(total_instrs), corpus_ns);

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_dispatch");
    jw.key("iters").value(static_cast<uint64_t>(iters));
    jw.key("corpus_programs").value(
        static_cast<uint64_t>(corpus.size()));
    // Deterministic simulated totals: identical across hosts and job
    // counts — CI diffs this section against the committed file to
    // catch accounting drift.
    jw.key("sim").beginArray();
    for (const KindRow &r : rows) {
        jw.beginObject();
        jw.key("name").value(r.kind);
        jw.key("dir_instrs").value(r.dirInstrs);
        jw.key("sim_cycles").value(r.simCycles);
        jw.endObject();
    }
    jw.endArray();
    jw.key("kinds").beginArray();
    for (const KindRow &r : rows) {
        jw.beginObject();
        jw.key("name").value(r.kind);
        jw.key("engine_ns_per_instr").value(r.nsPerInstr);
        jw.endObject();
    }
    jw.endArray();
    jw.key("engine_ns_per_instr").value(corpus_ns);
    jw.endObject();

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot open '%s'", out_path.c_str());
    out << jw.str() << "\n";
    std::fprintf(stderr, "# wrote %s\n", out_path.c_str());
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
