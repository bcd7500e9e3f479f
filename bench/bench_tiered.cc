/**
 * @file
 * bench_tiered — the adaptive tier's operating space (the PR-4
 * tentpole): sweep the hotness threshold and the trace-cache capacity
 * for the tiered organization over the whole sample corpus plus the
 * synthetic grid workload, against measured T1/T2/T3 baselines
 * (conventional, DTB, icache at the same capacity).
 *
 * Every number here is a *simulated* cycle count or a ratio of such
 * counts — fully deterministic, byte-identical for any --jobs value
 * (the points fan out over bench_common's SweepRunner and are
 * aggregated in grid order). There are deliberately no wall-clock
 * metrics; scripts/bench_compare.py therefore treats the committed
 * BENCH_tiered.json as an exact-schema reference, not a noisy one.
 *
 * Emits a human-readable table on stdout and a JSON document (schema
 * in docs/BENCHMARKS.md) to --out=<file>, default BENCH_tiered.json.
 *
 * Usage: bench_tiered [--out=FILE] [--jobs=N] [--seed=N]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

/** One corpus entry: a compiled program plus its input. */
struct CorpusEntry
{
    std::string name;
    DirProgram program;
    std::vector<int64_t> input;
};

std::vector<CorpusEntry>
buildCorpus(uint64_t seed)
{
    std::vector<CorpusEntry> corpus;
    for (const auto &sample : workload::samplePrograms()) {
        CorpusEntry e;
        e.name = sample.name;
        e.program = hlr::compileSource(sample.source);
        e.input = sample.input;
        corpus.push_back(std::move(e));
    }
    CorpusEntry synth;
    synth.name = "synthetic";
    synth.program = gridWorkload(2, seed);
    corpus.push_back(std::move(synth));
    return corpus;
}

/** Corpus-aggregate of one machine configuration. */
struct AggRow
{
    uint64_t cycles = 0;
    uint64_t dirInstrs = 0;
    /** Weighted (per-instruction) means over the corpus. */
    double dtbHitRatio = 0;
    double traceHitRatio = 0;
    double coverage = 0;
    double cpi() const
    {
        return dirInstrs == 0 ? 0.0 :
               static_cast<double>(cycles) /
               static_cast<double>(dirInstrs);
    }
};

AggRow
aggregate(const std::vector<RunResult> &results)
{
    AggRow row;
    double dtb = 0, trace = 0, cover = 0;
    for (const RunResult &r : results) {
        row.cycles += r.cycles;
        row.dirInstrs += r.dirInstrs;
        double w = static_cast<double>(r.dirInstrs);
        dtb += w * r.dtbHitRatio;
        trace += w * r.traceHitRatio;
        cover += w * r.traceCoverage;
    }
    double n = static_cast<double>(row.dirInstrs);
    if (n > 0) {
        row.dtbHitRatio = dtb / n;
        row.traceHitRatio = trace / n;
        row.coverage = cover / n;
    }
    return row;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string out_path = "BENCH_tiered.json";
    uint64_t seed = 1978;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(std::strlen("--out="));
        else if (arg.rfind("--seed=", 0) == 0)
            seed = parseUintFlag("--seed",
                                 arg.substr(std::strlen("--seed=")), 0,
                                 UINT64_MAX);
        else if (arg.rfind("--jobs=", 0) == 0)
            continue; // consumed by jobsFromArgs below
        else
            fatal("unknown option '%s'", arg.c_str());
    }

    std::vector<CorpusEntry> corpus = buildCorpus(seed);

    // The grid: hotness thresholds x trace-cache capacities. The
    // baselines (T1/T2/T3 organizations) share the corpus and the
    // default DTB/icache capacity, so the tiered column is an
    // apples-to-apples T4 at equal second-level resources.
    const std::vector<uint32_t> thresholds = {2, 4, 8, 16};
    // 256 B holds only a handful of traces (capacity pressure shows in
    // the coverage column); 8192 B is the default operating point.
    const std::vector<uint64_t> traceBytes = {256, 8192};
    const std::vector<MachineKind> baselineKinds = {
        MachineKind::Conventional, MachineKind::Dtb, MachineKind::Cached,
    };

    // Flatten (config x program) into one SweepPoint batch so every
    // simulation fans out over the runner at once; aggregation below
    // walks the result vector in grid order, keeping the report
    // byte-identical for any job count.
    std::vector<MachineConfig> configs;
    std::vector<std::string> configNames;
    for (MachineKind kind : baselineKinds) {
        configs.push_back(makeConfig(kind));
        configNames.push_back(machineKindName(kind));
    }
    for (uint32_t threshold : thresholds) {
        for (uint64_t bytes : traceBytes) {
            MachineConfig cfg = makeConfig(MachineKind::Tiered);
            cfg.tier.hotThreshold = threshold;
            cfg.traceCache.capacityBytes = bytes;
            configs.push_back(cfg);
            configNames.push_back(
                "tiered t=" + std::to_string(threshold) +
                " tc=" + std::to_string(bytes));
        }
    }

    std::vector<SweepPoint> points;
    for (const MachineConfig &cfg : configs) {
        for (const CorpusEntry &e : corpus) {
            SweepPoint point;
            point.label = e.name;
            point.program = e.program;
            point.config = cfg;
            point.input = e.input;
            points.push_back(std::move(point));
        }
    }

    SweepRunner runner(jobsFromArgs(argc, argv));
    SweepReport report = runSweep(runner, points);

    std::vector<AggRow> rows;
    for (size_t c = 0; c < configs.size(); ++c) {
        std::vector<RunResult> slice(
            report.results.begin() +
                static_cast<ptrdiff_t>(c * corpus.size()),
            report.results.begin() +
                static_cast<ptrdiff_t>((c + 1) * corpus.size()));
        rows.push_back(aggregate(slice));
    }

    const AggRow &dtb_row = rows[1]; // baselineKinds order: the T2 row

    std::printf("bench_tiered: %zu corpus programs x %zu configs on %u "
                "workers (simulated cycles)\n\n",
                corpus.size(), configs.size(), runner.jobs());
    std::printf("%-22s %12s %10s %8s %8s %9s\n", "config",
                "cycles/instr", "vs dtb", "hD", "cover", "trace-hit");
    for (size_t c = 0; c < configs.size(); ++c) {
        const AggRow &r = rows[c];
        std::printf("%-22s %12.3f %9.3fx %8.4f %8.4f %9.4f\n",
                    configNames[c].c_str(), r.cpi(),
                    dtb_row.cpi() / r.cpi(), r.dtbHitRatio, r.coverage,
                    r.traceHitRatio);
    }

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_tiered");
    jw.key("corpus_programs").value(
        static_cast<uint64_t>(corpus.size()));
    jw.key("seed").value(seed);
    jw.key("baseline").beginArray();
    for (size_t c = 0; c < baselineKinds.size(); ++c) {
        jw.beginObject();
        jw.key("machine").value(configNames[c]);
        jw.key("cycles").value(rows[c].cycles);
        jw.key("dir_instrs").value(rows[c].dirInstrs);
        jw.key("cycles_per_instr").value(rows[c].cpi());
        jw.endObject();
    }
    jw.endArray();
    jw.key("tiered").beginArray();
    for (size_t t = 0; t < thresholds.size(); ++t) {
        for (size_t b = 0; b < traceBytes.size(); ++b) {
            size_t c = baselineKinds.size() + t * traceBytes.size() + b;
            const AggRow &r = rows[c];
            jw.beginObject();
            jw.key("threshold").value(
                static_cast<uint64_t>(thresholds[t]));
            jw.key("trace_bytes").value(traceBytes[b]);
            jw.key("cycles").value(r.cycles);
            jw.key("dir_instrs").value(r.dirInstrs);
            jw.key("cycles_per_instr").value(r.cpi());
            jw.key("speedup_vs_dtb").value(dtb_row.cpi() / r.cpi());
            jw.key("dtb_hit_ratio").value(r.dtbHitRatio);
            jw.key("tier_coverage").value(r.coverage);
            jw.key("trace_hit_ratio").value(r.traceHitRatio);
            jw.endObject();
        }
    }
    jw.endArray();
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
