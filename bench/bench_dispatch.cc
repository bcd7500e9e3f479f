/**
 * @file
 * bench_dispatch — host wall-clock of the fast-run execution mode
 * (--dispatch=threaded) against the reference switch interpreter.
 *
 * Times whole simulations over the sample corpus plus the synthetic
 * grid workload, one row per machine kind (conventional, cached, dtb,
 * dtb2, tiered). Before any timing, every corpus point is run once in
 * each mode and the two RunResults are compared field by field — the
 * bench aborts on the first divergence, so a published speedup is
 * always a speedup *at identical simulated output*.
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
    // semantics-bound (large x), where interpretation overhead — the
    // thing the dispatch modes differ on — is amortized per spin.
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

/**
 * Abort unless the two runs are byte-identical in every simulated
 * observable. The dispatch mode is a host implementation detail; any
 * difference here is a bug, not noise.
 */
void
requireIdentical(const RunResult &a, const RunResult &b,
                 const char *kind, const std::string &label)
{
    bool same = a.output == b.output && a.cycles == b.cycles &&
        a.dirInstrs == b.dirInstrs &&
        a.breakdown.fetch == b.breakdown.fetch &&
        a.breakdown.decode == b.breakdown.decode &&
        a.breakdown.stage == b.breakdown.stage &&
        a.breakdown.dispatch == b.breakdown.dispatch &&
        a.breakdown.semantic == b.breakdown.semantic &&
        a.breakdown.translate == b.breakdown.translate &&
        a.breakdown.translate2 == b.breakdown.translate2 &&
        a.counters == b.counters && a.histograms == b.histograms &&
        a.opcodeCounts == b.opcodeCounts &&
        a.stats.toString() == b.stats.toString();
    if (!same)
        fatal("dispatch modes diverged on %s/%s — refusing to time a "
              "broken fast path", kind, label.c_str());
}

struct KindRow
{
    const char *kind = "";
    uint64_t dirInstrs = 0;   ///< per corpus pass (identical per mode)
    uint64_t simCycles = 0;   ///< per corpus pass (identical per mode)
    double switchNsPerInstr = 0;
    double threadedNsPerInstr = 0;
    double speedup() const
    {
        return switchNsPerInstr / threadedNsPerInstr;
    }
};

KindRow
timeKind(MachineKind kind, const std::vector<CorpusPoint> &corpus,
         unsigned iters)
{
    KindRow row;
    row.kind = machineKindName(kind);

    // One machine per (point, mode), reused across reps — beginRun
    // resets all simulated state, so every rep re-simulates the whole
    // run (cold DTB included) and reps are identical by construction.
    std::vector<std::unique_ptr<Machine>> machines[2];
    for (int mode = 0; mode < 2; ++mode) {
        MachineConfig cfg = makeConfig(kind);
        cfg.dispatch = mode == 0 ? DispatchMode::Switch :
            DispatchMode::Threaded;
        for (const CorpusPoint &pt : corpus)
            machines[mode].push_back(
                std::make_unique<Machine>(*pt.image, cfg));
    }

    // Identity gate (doubles as warm-up for both modes).
    for (size_t i = 0; i < corpus.size(); ++i) {
        RunResult sw = machines[0][i]->run(corpus[i].input);
        RunResult th = machines[1][i]->run(corpus[i].input);
        requireIdentical(sw, th, row.kind, corpus[i].label);
        row.dirInstrs += sw.dirInstrs;
        row.simCycles += sw.cycles;
    }

    auto measure = [&](int mode) -> double {
        double t0 = nowNs();
        for (unsigned it = 0; it < iters; ++it)
            for (size_t i = 0; i < corpus.size(); ++i)
                g_sink = g_sink +
                    machines[mode][i]->run(corpus[i].input).cycles;
        double t1 = nowNs();
        return (t1 - t0) /
            (static_cast<double>(row.dirInstrs) * iters);
    };

    row.switchNsPerInstr = measure(0);
    row.threadedNsPerInstr = measure(1);
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
                "%zu corpus programs (switch vs threaded at identical "
                "simulated output)\n\n", iters, corpus.size());
    std::printf("%-14s %12s %14s %16s %9s\n", "kind", "dir instrs",
                "switch ns/ins", "threaded ns/ins", "speedup");

    std::vector<KindRow> rows;
    double total_switch_ns = 0;
    double total_threaded_ns = 0;
    uint64_t total_instrs = 0;
    for (MachineKind kind : kinds) {
        rows.push_back(timeKind(kind, corpus, iters));
        const KindRow &r = rows.back();
        std::printf("%-14s %12llu %14.2f %16.2f %8.2fx\n", r.kind,
                    static_cast<unsigned long long>(r.dirInstrs),
                    r.switchNsPerInstr, r.threadedNsPerInstr,
                    r.speedup());
        total_switch_ns +=
            r.switchNsPerInstr * static_cast<double>(r.dirInstrs);
        total_threaded_ns +=
            r.threadedNsPerInstr * static_cast<double>(r.dirInstrs);
        total_instrs += r.dirInstrs;
    }
    double corpus_speedup = total_switch_ns / total_threaded_ns;
    std::printf("\ncorpus-wide    %12llu %14.2f %16.2f %8.2fx\n",
                static_cast<unsigned long long>(total_instrs),
                total_switch_ns / static_cast<double>(total_instrs),
                total_threaded_ns / static_cast<double>(total_instrs),
                corpus_speedup);

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_dispatch");
    jw.key("iters").value(static_cast<uint64_t>(iters));
    jw.key("corpus_programs").value(
        static_cast<uint64_t>(corpus.size()));
    // Deterministic simulated totals: identical across hosts, dispatch
    // modes and job counts — CI diffs this section against the
    // committed file to catch accounting drift.
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
        jw.key("switch_ns_per_instr").value(r.switchNsPerInstr);
        jw.key("threaded_ns_per_instr").value(r.threadedNsPerInstr);
        jw.key("speedup").value(r.speedup());
        jw.endObject();
    }
    jw.endArray();
    jw.key("speedup").value(corpus_speedup);
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
