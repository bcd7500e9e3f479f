/**
 * @file
 * bench_multitenant — the multi-programmed UHM's operating space (the
 * PR-6 tentpole): N independent guest programs time-sliced over one
 * shared dynamic translation buffer by the tenant scheduler.
 *
 * Two grids:
 *
 *  - sharing: tenant count {1 .. 1024} x DTB switch discipline
 *    {flush-on-switch, tag-and-share, tag + 4-way partitioned} under
 *    round-robin. This is the paper's DTB question under
 *    multi-programming: how fast does the translation working set
 *    thrash as address spaces multiply, and how much of the damage do
 *    ASID tags (vs flushing) and partitioning (vs free-for-all) undo?
 *  - policy: round-robin vs priority vs miss-feedback at a fixed
 *    tenant count, tag-and-share. Architectural results are identical
 *    across policies (every tenant runs to HALT); what moves is the
 *    finish spread and the per-slice dispatch-latency tail.
 *
 * Per point: aggregate CPI, per-tenant DTB miss rate, and the pooled
 * p50/p99 of per-slice CPI (milli-cycles per DIR instruction — the
 * dispatch-latency distribution a tenant actually experiences,
 * including cold-start translation storms after a flush or eviction).
 *
 * Every number is simulated and integer-deterministic: one scheduler
 * run is single-threaded, points fan out over bench_common's
 * SweepRunner into index-addressed slots, so the table and JSON are
 * byte-identical for any --jobs value. CI regenerates the JSON and
 * cmp(1)s it against the committed BENCH_multitenant.json.
 *
 * Emits a table on stdout and JSON (schema in docs/BENCHMARKS.md) to
 * --out=<file>, default BENCH_multitenant.json.
 *
 * Usage: bench_multitenant [--out=FILE] [--jobs=N] [--seed=N]
 *                          [--max-tenants=N]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sched/scheduler.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

/** Largest --max-tenants: the largest tenant count the grid has. */
constexpr uint64_t maxTenants = 1024;

/**
 * Tenant i's guest program: a small synthetic loop nest whose shape
 * (and therefore translation working set) varies with the tenant
 * index, so tenants genuinely compete for DTB sets instead of sharing
 * one identical footprint.
 */
DirProgram
tenantProgram(size_t i, uint64_t seed)
{
    workload::SyntheticConfig cfg;
    cfg.numLoops = 3 + static_cast<uint32_t>(i % 3);
    cfg.bodyInstrs = 10 + static_cast<uint32_t>(i % 5) * 2;
    cfg.iterations = 4;
    cfg.semworkDensity = 0.15;
    cfg.semworkWeight = 2;
    cfg.numGlobals = 12;
    cfg.outerRepeats = 1;
    cfg.seed = seed + i;
    return workload::generateSynthetic(cfg);
}

/** One grid point's configuration. */
struct Point
{
    std::string section; ///< "sharing" or "policy"
    std::string label;   ///< mode / policy name for the table
    size_t tenants = 1;
    sched::Policy policy = sched::Policy::RoundRobin;
    sched::SwitchMode mode = sched::SwitchMode::TagAndShare;
    uint64_t partitions = 0;
};

/** One grid point's measured row (all simulated, deterministic). */
struct Row
{
    uint64_t cycles = 0;
    uint64_t dirInstrs = 0;
    uint64_t switches = 0;
    uint64_t flushes = 0;
    uint64_t flushedEntries = 0;
    uint64_t dtbHits = 0;
    uint64_t dtbMisses = 0;
    /** Pooled per-slice CPI percentiles (milli-cycles/instr). */
    uint64_t p50Milli = 0;
    uint64_t p99Milli = 0;
    /** Worst single tenant's p99 (tail-of-the-tail). */
    uint64_t worstP99Milli = 0;
    /** Last finish minus first finish (global cycles). */
    uint64_t finishSpread = 0;

    double cpi() const
    {
        return dirInstrs == 0 ? 0.0 :
               static_cast<double>(cycles) /
               static_cast<double>(dirInstrs);
    }
    double missRate() const
    {
        uint64_t total = dtbHits + dtbMisses;
        return total == 0 ? 0.0 :
               static_cast<double>(dtbMisses) /
               static_cast<double>(total);
    }
};

/** Nearest-rank percentile of an unsorted sample (0 when empty). */
uint64_t
percentile(std::vector<uint64_t> sample, unsigned pct)
{
    if (sample.empty())
        return 0;
    std::sort(sample.begin(), sample.end());
    return sample[(sample.size() - 1) * pct / 100];
}

Row
measure(const Point &pt, uint64_t seed)
{
    sched::SchedConfig sc;
    sc.policy = pt.policy;
    sc.switchMode = pt.mode;
    sc.quantumCycles = 1500;
    sc.machine.kind = MachineKind::Dtb;
    sc.machine.dtb.numPartitions = pt.partitions;

    std::vector<sched::TenantSpec> tenants;
    tenants.reserve(pt.tenants);
    for (size_t i = 0; i < pt.tenants; ++i) {
        sched::TenantSpec spec;
        spec.name = "t" + std::to_string(i);
        spec.program = tenantProgram(i, seed);
        spec.priority = 1 + static_cast<uint32_t>(i % 3);
        tenants.push_back(std::move(spec));
    }

    sched::SchedResult sr = sched::runScheduled(sc, std::move(tenants));

    Row row;
    row.cycles = sr.totalCycles;
    row.switches = sr.switches;
    row.flushes = sr.flushes;
    row.flushedEntries = sr.flushedEntries;
    std::vector<uint64_t> pooled;
    uint64_t first_finish = UINT64_MAX, last_finish = 0;
    for (const sched::TenantResult &t : sr.tenants) {
        row.dirInstrs += t.run.dirInstrs;
        row.dtbHits += t.dtbHits;
        row.dtbMisses += t.dtbMisses;
        pooled.insert(pooled.end(), t.sliceCpiMilli.begin(),
                      t.sliceCpiMilli.end());
        row.worstP99Milli = std::max(row.worstP99Milli, t.cpiP99());
        first_finish = std::min(first_finish, t.finishedAtCycle);
        last_finish = std::max(last_finish, t.finishedAtCycle);
    }
    row.p50Milli = percentile(pooled, 50);
    row.p99Milli = percentile(std::move(pooled), 99);
    row.finishSpread = last_finish - first_finish;
    return row;
}

void
emitRow(JsonWriter &jw, const Point &pt, const Row &r)
{
    jw.beginObject();
    jw.key("tenants").value(static_cast<uint64_t>(pt.tenants));
    if (pt.section == "sharing")
        jw.key("mode").value(pt.label);
    else
        jw.key("policy").value(pt.label);
    jw.key("cycles").value(r.cycles);
    jw.key("dir_instrs").value(r.dirInstrs);
    jw.key("cycles_per_instr").value(r.cpi());
    jw.key("dtb_miss_rate").value(r.missRate());
    jw.key("switches").value(r.switches);
    jw.key("flushes").value(r.flushes);
    jw.key("flushed_entries").value(r.flushedEntries);
    jw.key("p50_slice_cpi_milli").value(r.p50Milli);
    jw.key("p99_slice_cpi_milli").value(r.p99Milli);
    jw.key("worst_tenant_p99_milli").value(r.worstP99Milli);
    jw.key("finish_spread_cycles").value(r.finishSpread);
    jw.endObject();
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string out_path = "BENCH_multitenant.json";
    uint64_t seed = 1978;
    size_t max_tenants = maxTenants;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(std::strlen("--out="));
        else if (arg.rfind("--seed=", 0) == 0)
            seed = parseUintFlag("--seed",
                                 arg.substr(std::strlen("--seed=")), 0,
                                 UINT64_MAX);
        else if (arg.rfind("--max-tenants=", 0) == 0)
            max_tenants = parseUintFlag(
                "--max-tenants", arg.substr(std::strlen("--max-tenants=")),
                1, maxTenants);
        else if (arg.rfind("--jobs=", 0) == 0)
            continue; // consumed by jobsFromArgs below
        else
            fatal("unknown option '%s'", arg.c_str());
    }

    // The sharing grid: tenant-count curve per switch discipline.
    struct Mode
    {
        const char *name;
        sched::SwitchMode mode;
        uint64_t partitions;
    };
    const std::vector<Mode> modes = {
        {"flush", sched::SwitchMode::FlushOnSwitch, 0},
        {"tag", sched::SwitchMode::TagAndShare, 0},
        {"tag-part4", sched::SwitchMode::TagAndShare, 4},
    };
    const std::vector<size_t> tenantCounts = {1, 4, 16, 64, 256, 1024};
    const size_t policyTenants = 16;

    std::vector<Point> points;
    for (const Mode &m : modes) {
        for (size_t n : tenantCounts) {
            if (n > max_tenants)
                continue;
            Point pt;
            pt.section = "sharing";
            pt.label = m.name;
            pt.tenants = n;
            pt.mode = m.mode;
            pt.partitions = m.partitions;
            points.push_back(std::move(pt));
        }
    }
    for (sched::Policy policy :
         {sched::Policy::RoundRobin, sched::Policy::Priority,
          sched::Policy::MissFeedback}) {
        Point pt;
        pt.section = "policy";
        pt.label = sched::policyName(policy);
        pt.tenants = std::min(policyTenants, max_tenants);
        pt.policy = policy;
        points.push_back(std::move(pt));
    }

    SweepRunner runner(jobsFromArgs(argc, argv));
    std::vector<Row> rows = runner.mapItems(
        points, [&](const Point &pt) { return measure(pt, seed); });

    std::printf("bench_multitenant: %zu points on %u workers "
                "(simulated cycles, shared DTB, quantum 1500)\n\n",
                points.size(), runner.jobs());
    std::printf("%-8s %-10s %7s %12s %8s %9s %9s %10s\n", "section",
                "mode", "tenants", "cycles/instr", "miss", "p50m",
                "p99m", "switches");
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &pt = points[i];
        const Row &r = rows[i];
        std::printf("%-8s %-10s %7zu %12.3f %8.4f %9llu %9llu %10llu\n",
                    pt.section.c_str(), pt.label.c_str(), pt.tenants,
                    r.cpi(), r.missRate(),
                    static_cast<unsigned long long>(r.p50Milli),
                    static_cast<unsigned long long>(r.p99Milli),
                    static_cast<unsigned long long>(r.switches));
    }

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_multitenant");
    jw.key("seed").value(seed);
    jw.key("quantum_cycles").value(static_cast<uint64_t>(1500));
    jw.key("max_tenants").value(static_cast<uint64_t>(max_tenants));
    jw.key("sharing").beginArray();
    for (size_t i = 0; i < points.size(); ++i)
        if (points[i].section == "sharing")
            emitRow(jw, points[i], rows[i]);
    jw.endArray();
    jw.key("policy").beginArray();
    for (size_t i = 0; i < points.size(); ++i)
        if (points[i].section == "policy")
            emitRow(jw, points[i], rows[i]);
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
