#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/pool.hh"

namespace uhm::bench
{

MeasuredPoint
measurePoint(const DirProgram &prog, EncodingScheme scheme,
             const MachineConfig &base, const std::vector<int64_t> &input)
{
    auto image = encodeDir(prog, scheme);

    MachineConfig conv_cfg = base;
    conv_cfg.kind = MachineKind::Conventional;
    MachineConfig cache_cfg = base;
    cache_cfg.kind = MachineKind::Cached;
    MachineConfig dtb_cfg = base;
    dtb_cfg.kind = MachineKind::Dtb;

    Machine conv(*image, conv_cfg);
    Machine cached(*image, cache_cfg);
    Machine dtb(*image, dtb_cfg);
    RunResult r1 = conv.run(input);
    RunResult r3 = cached.run(input);
    RunResult r2 = dtb.run(input);

    MeasuredPoint pt;
    pt.t1 = r1.avgInterpTime();
    pt.t2 = r2.avgInterpTime();
    pt.t3 = r3.avgInterpTime();
    // Decode-heavy parameters come from the conventional run (it
    // decodes every instruction); the DTB-path parameters from the DTB
    // run.
    pt.d = r1.measuredD;
    pt.x = r1.measuredX;
    pt.g = r2.measuredG;
    pt.hD = r2.dtbHitRatio;
    pt.hc = r3.cacheHitRatio;
    pt.dirInstrs = r1.dirInstrs;
    if (r2.dirInstrs > 0) {
        pt.s1 = static_cast<double>(r2.counter("machine.short_instrs")) /
                static_cast<double>(r2.dirInstrs);
    }
    if (r1.dirInstrs > 0) {
        pt.s2 = static_cast<double>(r1.counter("machine.dir_fetch_refs")) /
                static_cast<double>(r1.dirInstrs);
    }
    return pt;
}

DirProgram
gridWorkload(uint32_t semwork_weight, uint64_t seed)
{
    workload::SyntheticConfig cfg;
    cfg.numLoops = 14;
    cfg.bodyInstrs = 50;
    cfg.iterations = 5;
    cfg.outerRepeats = 12;
    cfg.semworkDensity = semwork_weight > 0 ? 0.25 : 0.0;
    cfg.semworkWeight = semwork_weight;
    cfg.numGlobals = 24;
    cfg.seed = seed;
    return workload::generateSynthetic(cfg);
}

unsigned
jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) != 0)
            continue;
        try {
            return static_cast<unsigned>(
                parseUintFlag("--jobs", argv[i] + 7, 0, maxJobs));
        } catch (const FatalError &e) {
            // Not every grid bench catches at top level: exit here,
            // before any worker thread starts.
            std::fprintf(stderr, "error: %s\n", e.what());
            std::exit(1);
        }
    }
    return 0;
}

std::vector<SteeredPoint>
steeredGrid()
{
    std::vector<SteeredPoint> grid;
    for (double d : analytic::paperDGrid())
        for (double x : {5.0, 15.0, 30.0})
            grid.push_back({d, x});
    return grid;
}

MeasuredPoint
measureSteered(const SteeredPoint &pt, EncodingScheme scheme)
{
    // Steer x with SEMWORK weight; each spin iteration costs ~4
    // micro-cycles and density is 0.25, so weight ~= (x_target -
    // base_x) for the coarse baseline x ~ 14.
    uint32_t weight = pt.xTarget > 14 ?
        static_cast<uint32_t>(pt.xTarget - 14) : 0;
    DirProgram prog = gridWorkload(weight);

    MachineConfig base;
    base.costs.extraDecodeCycles = 0;
    // Calibrate d via a probe run, then pad.
    MeasuredPoint probe = measurePoint(prog, scheme, base);
    if (probe.d < pt.dTarget) {
        base.costs.extraDecodeCycles =
            static_cast<uint64_t>(pt.dTarget - probe.d + 0.5);
    }
    return measurePoint(prog, scheme, base);
}

std::vector<MeasuredPoint>
measureSteeredGrid(SweepRunner &runner,
                   const std::vector<SteeredPoint> &grid,
                   EncodingScheme scheme)
{
    return runner.mapItems(grid, [scheme](const SteeredPoint &pt) {
        return measureSteered(pt, scheme);
    });
}

std::vector<MeasuredPoint>
measureSamples(SweepRunner &runner, const std::vector<std::string> &names,
               EncodingScheme scheme)
{
    return runner.mapItems(names, [scheme](const std::string &name) {
        const auto &sample = workload::sampleByName(name);
        DirProgram prog = hlr::compileSource(sample.source);
        MachineConfig base;
        return measurePoint(prog, scheme, base, sample.input);
    });
}

std::vector<RunResult>
runConfigs(SweepRunner &runner, const DirProgram &prog,
           EncodingScheme scheme,
           const std::vector<MachineConfig> &configs,
           const std::vector<int64_t> &input)
{
    return runner.mapItems(configs,
                           [&](const MachineConfig &cfg) {
                               return runProgram(prog, scheme, cfg,
                                                 input);
                           });
}

namespace
{

/** Render one point's "sweep_point" JSONL line. */
std::string
sweepPointLine(const SweepPoint &point, const RunResult &r)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("sweep_point");
    jw.key("program").value(point.label);
    jw.key("machine").value(machineKindName(point.config.kind));
    jw.key("encoding").value(encodingName(point.scheme));
    jw.key("dir_instrs").value(r.dirInstrs);
    jw.key("cycles").value(r.cycles);
    jw.key("cycles_per_instr").value(r.avgInterpTime());
    if (point.config.kind == MachineKind::Dtb ||
        point.config.kind == MachineKind::Dtb2 ||
        point.config.kind == MachineKind::Tiered) {
        jw.key("dtb.hit_ratio").value(r.dtbHitRatio);
    }
    if (point.config.kind == MachineKind::Dtb2)
        jw.key("dtbl1.hit_ratio").value(r.dtbL1HitRatio);
    if (point.config.kind == MachineKind::Tiered) {
        jw.key("tier.coverage").value(r.traceCoverage);
        jw.key("tier.trace_hit_ratio").value(r.traceHitRatio);
    }
    if (point.config.kind == MachineKind::Cached)
        jw.key("icache.hit_ratio").value(r.cacheHitRatio);
    jw.endObject();
    return jw.str() + "\n";
}

/** Render one point's "sweep_hist" line (empty when no histograms). */
std::string
sweepHistLine(const SweepPoint &point, const RunResult &r)
{
    if (r.histograms.empty())
        return {};
    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("sweep_hist");
    jw.key("program").value(point.label);
    for (const auto &kv : r.histograms) {
        jw.key(kv.first);
        kv.second.writeJson(jw);
    }
    jw.endObject();
    return jw.str() + "\n";
}

/** Render one point's "sweep_sample" lines (empty when sampling off). */
std::string
sweepSampleLines(const SweepPoint &point, const RunResult &r)
{
    std::string out;
    for (const obs::OccupancySample &s : r.samples) {
        JsonWriter jw;
        jw.beginObject();
        jw.key("type").value("sweep_sample");
        jw.key("program").value(point.label);
        obs::writeSampleFields(jw, s);
        jw.endObject();
        out += jw.str() + "\n";
    }
    return out;
}

} // anonymous namespace

DirProgram
resolveProgram(const std::string &name, uint64_t seed,
               std::vector<int64_t> &input, const ProgramLoader &load)
{
    if (name == "synthetic")
        return gridWorkload(2, seed);
    const std::vector<workload::SampleProgram> &corpus =
        workload::samplePrograms();
    if (load && std::none_of(corpus.begin(), corpus.end(),
                             [&](const workload::SampleProgram &s) {
                                 return s.name == name;
                             }))
        return load(name, input);
    const workload::SampleProgram &sample = workload::sampleByName(name);
    input = sample.input;
    return hlr::compileSource(sample.source);
}

std::vector<SweepPoint>
sweepPoints(const std::vector<std::string> &programs,
            const MachineSettings &settings, uint64_t seed,
            const ProgramLoader &load)
{
    std::vector<std::string> names = programs;
    if (names.empty()) {
        for (const workload::SampleProgram &sample :
             workload::samplePrograms())
            names.push_back(sample.name);
    }
    std::vector<SweepPoint> points(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        points[i].label = names[i];
        points[i].program =
            resolveProgram(names[i], seed, points[i].input, load);
        points[i].scheme = settings.scheme;
        points[i].config = settings.toConfig();
    }
    return points;
}

SweepReport
runSweep(SweepRunner &runner, const std::vector<SweepPoint> &points)
{
    SweepReport report;
    report.results = runner.mapItems(points, [](const SweepPoint &point) {
        return runProgram(point.program, point.scheme, point.config,
                          point.input);
    });

    // Aggregation happens here, in point order — never in the workers,
    // never in completion order — so the report is byte-identical for
    // any job count.
    for (size_t i = 0; i < points.size(); ++i) {
        report.jsonl += sweepPointLine(points[i], report.results[i]);
        report.jsonl += sweepHistLine(points[i], report.results[i]);
        report.jsonl += sweepSampleLines(points[i], report.results[i]);
        report.counters.accumulate(report.results[i].counters);
        report.histograms.accumulate(report.results[i].histograms);
    }

    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("sweep_summary");
    jw.key("points").value(static_cast<uint64_t>(points.size()));
    jw.key("counters");
    report.counters.writeJson(jw);
    jw.key("histograms");
    report.histograms.writeJson(jw);
    jw.endObject();
    report.jsonl += jw.str() + "\n";
    return report;
}

} // namespace uhm::bench
