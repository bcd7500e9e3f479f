/**
 * @file
 * uhm_cli — a command-line driver for the whole pipeline.
 *
 * Usage:
 *   uhm_cli [run] [options] <sample-name | path/to/program.ctr>
 *   uhm_cli sweep [options] [program ...]
 *
 * "run" is the (optional) explicit name of the single-program
 * subcommand; omitting it is equivalent.
 *
 * With --tenants=<n> (n >= 1) the run subcommand becomes
 * multi-programmed: n copies of the program are time-sliced over one
 * machine with a shared DTB by the tenant scheduler (src/sched/).
 * --sched picks the policy, --quantum-cycles the slice length,
 * --switch-mode what happens to the shared DTB on a switch, and
 * --partitions divides its set space among tenants. Requires a
 * DTB-dispatching --machine (dtb or tiered).
 *
 * The sweep subcommand runs a batch of programs concurrently on the
 * parallel sweep harness (bench/bench_common.hh) and emits a JSONL
 * report — one "sweep_point" line per program in argument order plus
 * one "sweep_summary" line with the merged counters. The report is
 * byte-identical for any --jobs value. Programs default to the whole
 * sample corpus; the pseudo-program "synthetic" adds the phased-loop
 * grid workload, generated from --seed.
 *
 * Sweep options:
 *   --jobs=<n>             worker threads, at most 256 (default: all
 *                          cores)
 *   --seed=<n>             seed for the "synthetic" workload (1978)
 *   --machine=/--encoding= as below, applied to every point
 *   --tier-threshold=/--trace-cap=/--trace-bytes= as below
 *   --out=<file>           write the JSONL report to <file> (stdout)
 *
 * Options:
 *   --machine=<conventional|cached|dtb|dtb2|tiered>  (default dtb)
 *   --encoding=<expanded|packed|contextual|huffman|pair-huffman|
 *               quantized>                      (default huffman)
 *   --input=<comma-separated ints>              (read-statement input)
 *   --dtb-bytes=<n>        DTB buffer capacity  (default 4096)
 *   --assoc=<n>            DTB/cache ways, 0 = full (default 4)
 *   --tier-threshold=<n>   backedges before a trace records (tiered, 8)
 *   --trace-cap=<n>        max DIR instrs per trace (tiered, 64)
 *   --trace-bytes=<n>      trace-cache capacity (tiered, 8192)
 *   Both capacities are at most 1048576 bytes (exit 1 above).
 *   The three tier flags are rejected (exit 1) when --machine is not
 *   tiered — a misspelled machine kind must not silently ignore them.
 *   --tenants=<n>          time-slice n copies of the program (0 = off)
 *   --sched=<rr|prio|feedback>  tenant scheduling policy (default rr)
 *   --quantum-cycles=<n>   nominal slice length in cycles (5000)
 *   --switch-mode=<flush|tag>   shared-DTB handling on a tenant
 *                          switch (default tag)
 *   --partitions=<n>       partition the shared DTB's sets among
 *                          tenants (0/1 = fully shared)
 *   --raise                raise the DIR's semantic level (fuse opcodes)
 *   --disasm               print the DIR disassembly and exit
 *   --emit-asm=<file>      write round-trippable DIR assembly and exit
 *   --emit-bin=<file>      write the binary DIR form and exit
 *   --stats                print the cycle breakdown and the registry
 *                          counter snapshot ("# name = value") after
 *                          the run
 *   --trace                print the INTERP hit/miss trace (DTB kinds),
 *                          rendered from the typed event ring: the
 *                          first 200 lookups, or the ring's tail when
 *                          the run overflows it
 *   --profile[=<file>]     emit a JSONL profile report (phases,
 *                          counters, histograms, ratios) to <file>, or
 *                          to stderr when no file is given; combined
 *                          with --trace the report also carries typed
 *                          event lines. Format: docs/INTERNALS.md
 *   --timeline=<file>      record the typed event trace and write a
 *                          Chrome-trace-event JSON timeline (loadable
 *                          in Perfetto / chrome://tracing; see
 *                          scripts/trace_report.py) to <file>
 *   --sample-interval=<n>  snapshot DTB / trace-cache occupancy and
 *                          hit-rate deltas every <n> cycles into the
 *                          profile report and timeline (0 = off)
 *
 * The program argument may be a sample name, a Contour source file, a
 * DIR assembly file (.dira) or a DIR binary (.dirb).
 *
 * Exit status: 0 on success, 1 on user error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/emit.hh"
#include "obs/timeline.hh"
#include "sched/scheduler.hh"

#include "bench_common.hh"
#include "dir/asm.hh"
#include "dir/fusion.hh"
#include "dir/serialize.hh"
#include "hlr/compiler.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/pool.hh"
#include "uhm/machine.hh"
#include "uhm/profile.hh"
#include "workload/samples.hh"

namespace
{

struct Options
{
    std::string program = "qsort";
    uhm::MachineKind kind = uhm::MachineKind::Dtb;
    uhm::EncodingScheme scheme = uhm::EncodingScheme::Huffman;
    std::vector<int64_t> input;
    uint64_t dtbBytes = 4096;
    unsigned assoc = 4;
    uint32_t tierThreshold = 8;
    size_t traceCap = 64;
    uint64_t traceBytes = 8192;
    /**
     * First tier-only flag seen on the command line, empty when none:
     * tier flags on a non-tiered machine are an error, not a no-op.
     */
    std::string tierFlagSeen;
    /** Tenant count; 0 = classic single-program run. */
    unsigned tenants = 0;
    uhm::sched::Policy schedPolicy = uhm::sched::Policy::RoundRobin;
    uint64_t quantumCycles = 5000;
    uhm::sched::SwitchMode switchMode =
        uhm::sched::SwitchMode::TagAndShare;
    uint64_t partitions = 0;
    /** First scheduler-only flag seen, empty when none. */
    std::string schedFlagSeen;
    bool raiseLevel = false;
    bool disasm = false;
    bool stats = false;
    bool trace = false;
    bool profile = false;
    /** Profile destination; "-" = stderr. */
    std::string profilePath = "-";
    /** Chrome-trace timeline destination; empty = no timeline. */
    std::string timelinePath;
    /** Occupancy-sampler interval in cycles; 0 = off. */
    uint64_t sampleInterval = 0;
    std::string emitAsm;
    std::string emitBin;
};

uhm::MachineKind
parseMachine(const std::string &name)
{
    if (name == "conventional")
        return uhm::MachineKind::Conventional;
    if (name == "cached")
        return uhm::MachineKind::Cached;
    if (name == "dtb")
        return uhm::MachineKind::Dtb;
    if (name == "dtb2")
        return uhm::MachineKind::Dtb2;
    if (name == "tiered")
        return uhm::MachineKind::Tiered;
    uhm::fatal("unknown machine kind '%s'", name.c_str());
}

/** Shared help text for the options both subcommands accept. */
constexpr const char *commonOptionsHelp =
    "  --machine=<conventional|cached|dtb|dtb2|tiered>\n"
    "                         machine organization (default dtb)\n"
    "  --encoding=<expanded|packed|contextual|huffman|pair-huffman|\n"
    "              quantized> DIR encoding (default huffman)\n"
    "  --tier-threshold=<n>   backedges into a resident DTB entry before\n"
    "                         a trace records (tiered only, default 8)\n"
    "  --trace-cap=<n>        max DIR instrs per trace (tiered, 64)\n"
    "  --trace-bytes=<n>      trace-cache capacity in bytes (tiered,\n"
    "                         default 8192, at most 1048576)\n";

void
printMainHelp(std::FILE *out = stdout)
{
    std::fputs(
        "usage: uhm_cli [run] [options] <sample-name | path/to/program>\n"
        "       uhm_cli sweep [options] [program ...]\n"
        "\n"
        "Run one program on the simulated universal host machine\n"
        "(the explicit \"run\" subcommand name is optional).\n"
        "\n",
        out);
    std::fputs(commonOptionsHelp, out);
    std::fputs(
        "  --input=<ints>         comma-separated read-statement input\n"
        "  --dtb-bytes=<n>        DTB buffer capacity (default 4096,\n"
        "                         at most 1048576)\n"
        "  --assoc=<n>            DTB/cache ways, 0 = full (default 4)\n"
        "  --tenants=<n>          time-slice n copies of the program\n"
        "                         over one shared DTB (0 = off)\n"
        "  --sched=<rr|prio|feedback>  tenant policy (default rr)\n"
        "  --quantum-cycles=<n>   nominal slice length (default 5000)\n"
        "  --switch-mode=<flush|tag>   DTB handling on a tenant switch\n"
        "                         (default tag)\n"
        "  --partitions=<n>       partition the shared DTB's sets among\n"
        "                         tenants (0/1 = fully shared)\n"
        "  --raise                fuse opcodes (raise semantic level)\n"
        "  --disasm               print the DIR disassembly and exit\n"
        "  --emit-asm=<file>      write DIR assembly and exit\n"
        "  --emit-bin=<file>      write binary DIR form and exit\n"
        "  --stats                print the cycle breakdown and every\n"
        "                         registry counter\n"
        "  --trace                print the INTERP hit/miss trace (DTB\n"
        "                         kinds; from the bounded event ring)\n"
        "  --profile[=<file>]     emit a JSONL profile report\n"
        "  --timeline=<file>      write a Chrome-trace timeline (load\n"
        "                         in Perfetto or chrome://tracing)\n"
        "  --sample-interval=<n>  sample DTB/trace-cache occupancy\n"
        "                         every <n> cycles (0 = off)\n"
        "\n"
        "example: uhm_cli run --machine=tiered --timeline=out.json "
        "loops\n",
        out);
}

void
printSweepHelp(std::FILE *out = stdout)
{
    std::fputs(
        "usage: uhm_cli sweep [options] [program ...]\n"
        "\n"
        "Run a batch of programs concurrently and emit a JSONL report\n"
        "(byte-identical for any --jobs value).\n"
        "\n",
        out);
    std::fputs(commonOptionsHelp, out);
    std::fputs(
        "  --jobs=<n>             worker threads, at most 256 (default:\n"
        "                         all cores)\n"
        "  --seed=<n>             seed for the \"synthetic\" workload\n"
        "  --sample-interval=<n>  sample DTB/trace-cache occupancy\n"
        "                         every <n> cycles per point (0 = off)\n"
        "  --out=<file>           write the report to <file> (stdout)\n"
        "\n"
        "example: uhm_cli sweep --machine=tiered --jobs=8 "
        "--out=tiered.jsonl\n",
        out);
}

uhm::EncodingScheme
parseEncoding(const std::string &name)
{
    for (uhm::EncodingScheme scheme : uhm::allEncodingSchemes()) {
        if (name == uhm::encodingName(scheme))
            return scheme;
    }
    uhm::fatal("unknown encoding '%s'", name.c_str());
}

/** @p text of flag @p flag as a uint32_t (range-checked, never wraps:
 *  --assoc=4294967296 would otherwise mean "fully associative"). */
uint32_t
parseUint32(const char *flag, const std::string &text)
{
    return static_cast<uint32_t>(
        uhm::parseUintFlag(flag, text, 0, UINT32_MAX));
}

/** @p text of flag @p flag as a uint64_t: no sign, no trailing
 *  characters ("-1" would otherwise wrap to 2^64-1). */
uint64_t
parseUint64(const char *flag, const std::string &text)
{
    return uhm::parseUintFlag(flag, text, 0, UINT64_MAX);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--machine=", 0) == 0)
            opts.kind = parseMachine(value("--machine="));
        else if (arg.rfind("--encoding=", 0) == 0)
            opts.scheme = parseEncoding(value("--encoding="));
        else if (arg.rfind("--input=", 0) == 0)
            opts.input = uhm::parseIntListFlag("--input",
                                               value("--input="));
        else if (arg.rfind("--dtb-bytes=", 0) == 0)
            opts.dtbBytes = parseUint64("--dtb-bytes",
                                        value("--dtb-bytes="));
        else if (arg.rfind("--assoc=", 0) == 0)
            opts.assoc = parseUint32("--assoc", value("--assoc="));
        else if (arg.rfind("--tier-threshold=", 0) == 0) {
            opts.tierThreshold = parseUint32(
                "--tier-threshold", value("--tier-threshold="));
            opts.tierFlagSeen = "--tier-threshold";
        }
        else if (arg.rfind("--trace-cap=", 0) == 0) {
            opts.traceCap = parseUint64("--trace-cap",
                                        value("--trace-cap="));
            opts.tierFlagSeen = "--trace-cap";
        }
        else if (arg.rfind("--trace-bytes=", 0) == 0) {
            opts.traceBytes = parseUint64("--trace-bytes",
                                          value("--trace-bytes="));
            opts.tierFlagSeen = "--trace-bytes";
        }
        else if (arg.rfind("--tenants=", 0) == 0)
            opts.tenants = parseUint32("--tenants", value("--tenants="));
        else if (arg.rfind("--sched=", 0) == 0) {
            if (!uhm::sched::parsePolicy(value("--sched="),
                                         opts.schedPolicy))
                uhm::fatal("unknown scheduling policy '%s' "
                           "(rr|prio|feedback)",
                           value("--sched=").c_str());
            opts.schedFlagSeen = "--sched";
        }
        else if (arg.rfind("--quantum-cycles=", 0) == 0) {
            opts.quantumCycles = parseUint64(
                "--quantum-cycles", value("--quantum-cycles="));
            opts.schedFlagSeen = "--quantum-cycles";
        }
        else if (arg.rfind("--switch-mode=", 0) == 0) {
            if (!uhm::sched::parseSwitchMode(value("--switch-mode="),
                                             opts.switchMode))
                uhm::fatal("unknown switch mode '%s' (flush|tag)",
                           value("--switch-mode=").c_str());
            opts.schedFlagSeen = "--switch-mode";
        }
        else if (arg.rfind("--partitions=", 0) == 0) {
            opts.partitions = parseUint64("--partitions",
                                          value("--partitions="));
            opts.schedFlagSeen = "--partitions";
        }
        else if (arg == "--help" || arg == "-h") {
            printMainHelp();
            std::exit(0);
        }
        else if (arg == "--raise")
            opts.raiseLevel = true;
        else if (arg == "--disasm")
            opts.disasm = true;
        else if (arg.rfind("--emit-asm=", 0) == 0)
            opts.emitAsm = value("--emit-asm=");
        else if (arg.rfind("--emit-bin=", 0) == 0)
            opts.emitBin = value("--emit-bin=");
        else if (arg == "--stats")
            opts.stats = true;
        else if (arg == "--trace")
            opts.trace = true;
        else if (arg == "--profile")
            opts.profile = true;
        else if (arg.rfind("--profile=", 0) == 0) {
            opts.profile = true;
            opts.profilePath = value("--profile=");
        }
        else if (arg.rfind("--timeline=", 0) == 0)
            opts.timelinePath = value("--timeline=");
        else if (arg.rfind("--sample-interval=", 0) == 0)
            opts.sampleInterval = parseUint64(
                "--sample-interval", value("--sample-interval="));
        else if (!arg.empty() && arg[0] == '-') {
            // Usage goes to stderr here: stdout must stay clean (and
            // empty) on a failed invocation so pipelines never mistake
            // help text for run output.
            printMainHelp(stderr);
            uhm::fatal("unknown option '%s'", arg.c_str());
        }
        else
            opts.program = arg;
    }
    return opts;
}

/** True if @p name ends with @p suffix. */
bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Resolve the program argument to a DirProgram, whatever its form. */
uhm::DirProgram
loadProgram(const std::string &arg, std::vector<int64_t> &default_input)
{
    if (endsWith(arg, ".dirb"))
        return uhm::loadDirProgram(arg);

    std::ifstream file(arg);
    if (file) {
        std::ostringstream os;
        os << file.rdbuf();
        if (endsWith(arg, ".dira"))
            return uhm::parseDirAssembly(os.str());
        return uhm::hlr::compileSource(os.str());
    }
    const auto &sample = uhm::workload::sampleByName(arg);
    default_input = sample.input;
    return uhm::hlr::compileSource(sample.source);
}

/**
 * The sweep subcommand: run a batch of programs concurrently and emit
 * the merged JSONL report. argv[1] is "sweep"; options follow.
 */
int
runSweepCommand(int argc, char **argv)
{
    unsigned jobs = 0;
    uint64_t seed = 1978;
    uint64_t sample_interval = 0;
    uhm::MachineKind kind = uhm::MachineKind::Dtb;
    uhm::EncodingScheme scheme = uhm::EncodingScheme::Huffman;
    uhm::tier::TierConfig tier_cfg;
    uhm::tier::TraceCacheConfig trace_cache_cfg;
    std::string tier_flag_seen;
    std::string out_path;
    std::vector<std::string> programs;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--jobs=", 0) == 0)
            jobs = static_cast<unsigned>(uhm::parseUintFlag(
                "--jobs", value("--jobs="), 0, uhm::maxJobs));
        else if (arg.rfind("--seed=", 0) == 0)
            seed = parseUint64("--seed", value("--seed="));
        else if (arg.rfind("--machine=", 0) == 0)
            kind = parseMachine(value("--machine="));
        else if (arg.rfind("--encoding=", 0) == 0)
            scheme = parseEncoding(value("--encoding="));
        else if (arg.rfind("--tier-threshold=", 0) == 0) {
            tier_cfg.hotThreshold = parseUint32(
                "--tier-threshold", value("--tier-threshold="));
            tier_flag_seen = "--tier-threshold";
        }
        else if (arg.rfind("--trace-cap=", 0) == 0) {
            tier_cfg.traceCap = parseUint64("--trace-cap",
                                            value("--trace-cap="));
            tier_flag_seen = "--trace-cap";
        }
        else if (arg.rfind("--trace-bytes=", 0) == 0) {
            trace_cache_cfg.capacityBytes = parseUint64(
                "--trace-bytes", value("--trace-bytes="));
            tier_flag_seen = "--trace-bytes";
        }
        else if (arg == "--help" || arg == "-h") {
            printSweepHelp();
            return 0;
        }
        else if (arg.rfind("--sample-interval=", 0) == 0)
            sample_interval = parseUint64(
                "--sample-interval", value("--sample-interval="));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = value("--out=");
        else if (!arg.empty() && arg[0] == '-') {
            printSweepHelp(stderr);
            uhm::fatal("unknown sweep option '%s'", arg.c_str());
        }
        else
            programs.push_back(arg);
    }
    if (!tier_flag_seen.empty() && kind != uhm::MachineKind::Tiered)
        uhm::fatal("%s only applies to --machine=tiered (got '%s')",
                   tier_flag_seen.c_str(), uhm::machineKindName(kind));
    if (programs.empty()) {
        for (const auto &sample : uhm::workload::samplePrograms())
            programs.push_back(sample.name);
    }

    std::vector<uhm::bench::SweepPoint> points;
    for (const std::string &name : programs) {
        uhm::bench::SweepPoint point;
        point.label = name;
        if (name == "synthetic") {
            point.program = uhm::bench::gridWorkload(2, seed);
        } else {
            point.program = loadProgram(name, point.input);
        }
        point.scheme = scheme;
        point.config.kind = kind;
        point.config.tier = tier_cfg;
        point.config.traceCache = trace_cache_cfg;
        point.config.sampleIntervalCycles = sample_interval;
        points.push_back(std::move(point));
    }

    uhm::bench::SweepRunner runner(jobs);
    uhm::bench::SweepReport report =
        uhm::bench::runSweep(runner, points);

    uhm::obs::writeTextTo(report.jsonl,
                          out_path.empty() ? "-" : out_path, stdout);
    std::fprintf(stderr, "# sweep: %zu points on %u workers, %llu DIR "
                 "instrs simulated\n",
                 points.size(), runner.jobs(),
                 static_cast<unsigned long long>(
                     report.counters.get("machine.dir_instrs")));
    return 0;
}

/** Print a registry counter snapshot to stderr, one "# name = value"
 *  line per counter in name order. */
void
printCounters(const std::map<std::string, uint64_t> &counters)
{
    for (const auto &kv : counters)
        std::fprintf(stderr, "# %s = %llu\n", kv.first.c_str(),
                     static_cast<unsigned long long>(kv.second));
}

/**
 * The multi-tenant path: n copies of the program time-sliced over one
 * shared-DTB machine by the tenant scheduler. @p cfg is the per-tenant
 * machine template the classic path would have used.
 */
int
runMultiTenant(const Options &opts, const uhm::DirProgram &prog,
               uhm::MachineConfig cfg)
{
    namespace sched = uhm::sched;
    if (opts.kind != uhm::MachineKind::Dtb &&
        opts.kind != uhm::MachineKind::Tiered)
        uhm::fatal("--tenants requires --machine=dtb or tiered "
                   "(got '%s')", uhm::machineKindName(opts.kind));
    if (opts.profile)
        uhm::fatal("--profile is per-machine; with --tenants use "
                   "--timeline and --stats");
    if (opts.trace)
        uhm::fatal("--trace is per-machine and not supported with "
                   "--tenants");
    if (opts.sampleInterval > 0)
        uhm::fatal("--sample-interval is per-machine and not supported "
                   "with --tenants");

    cfg.dtb.numPartitions = opts.partitions;
    cfg.profileEvents = false;

    sched::SchedConfig sc;
    sc.policy = opts.schedPolicy;
    sc.switchMode = opts.switchMode;
    sc.quantumCycles = opts.quantumCycles;
    sc.scheme = opts.scheme;
    sc.machine = cfg;
    sc.profileEvents = !opts.timelinePath.empty();
    if (sc.profileEvents)
        sc.profileEventCapacity =
            std::max<size_t>(sc.profileEventCapacity, size_t{1} << 20);

    std::vector<sched::TenantSpec> tenants;
    tenants.reserve(opts.tenants);
    for (unsigned i = 0; i < opts.tenants; ++i) {
        sched::TenantSpec spec;
        spec.name = opts.program + "#" + std::to_string(i);
        spec.program = prog;
        spec.input = opts.input;
        // Deterministic priority mix (1,2,3,1,...) so --sched=prio has
        // something to act on even with identical programs.
        spec.priority = 1 + i % 3;
        tenants.push_back(std::move(spec));
    }

    sched::SchedResult sr = sched::runScheduled(sc, std::move(tenants));

    for (const sched::TenantResult &t : sr.tenants) {
        std::printf("tenant %u:", t.asid);
        for (int64_t v : t.run.output)
            std::printf(" %lld", static_cast<long long>(v));
        std::printf("\n");
    }
    std::fprintf(stderr,
                 "# %s / %s: %zu tenants, policy %s, %s switches, "
                 "quantum %llu; %llu cycles total, %llu switches, "
                 "%llu flushes\n",
                 uhm::machineKindName(opts.kind),
                 uhm::encodingName(opts.scheme), sr.tenants.size(),
                 sched::policyName(sc.policy),
                 sched::switchModeName(sc.switchMode),
                 static_cast<unsigned long long>(sc.quantumCycles),
                 static_cast<unsigned long long>(sr.totalCycles),
                 static_cast<unsigned long long>(sr.switches),
                 static_cast<unsigned long long>(sr.flushes));
    for (const sched::TenantResult &t : sr.tenants) {
        std::fprintf(stderr,
                     "# tenant %u (%s): %llu instrs, %llu cycles in "
                     "%llu slices, dtb miss %.4f, cpi p50 %.3f p99 "
                     "%.3f, finished @%llu\n",
                     t.asid, t.name.c_str(),
                     static_cast<unsigned long long>(t.run.dirInstrs),
                     static_cast<unsigned long long>(t.run.cycles),
                     static_cast<unsigned long long>(t.slices),
                     t.missRate(),
                     static_cast<double>(t.cpiP50()) / 1000.0,
                     static_cast<double>(t.cpiP99()) / 1000.0,
                     static_cast<unsigned long long>(
                         t.finishedAtCycle));
    }
    if (opts.stats)
        printCounters(sr.counters);
    if (!opts.timelinePath.empty()) {
        uhm::obs::ProfileData p;
        p.meta.emplace_back("program", opts.program);
        p.meta.emplace_back("machine",
                            uhm::machineKindName(opts.kind));
        p.meta.emplace_back("encoding",
                            uhm::encodingName(opts.scheme));
        p.meta.emplace_back("tenants",
                            std::to_string(sr.tenants.size()));
        p.meta.emplace_back("policy", sched::policyName(sc.policy));
        p.meta.emplace_back("switch_mode",
                            sched::switchModeName(sc.switchMode));
        p.phases = uhm::cyclePhases(sr.breakdown);
        p.counters = sr.counters;
        p.histograms = sr.histograms;
        p.events = sr.events;
        p.eventsSeen = sr.eventsSeen;
        p.eventsDropped = sr.eventsDropped;
        uhm::obs::emitChromeTrace(p, opts.timelinePath);
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return runSweepCommand(argc, argv);
    // "run" is the explicit name of the default subcommand: shift it
    // off and parse the rest as usual.
    if (argc > 1 && std::strcmp(argv[1], "run") == 0) {
        --argc;
        ++argv;
    }
    Options opts = parseArgs(argc, argv);
    std::vector<int64_t> default_input;
    uhm::DirProgram prog = loadProgram(opts.program, default_input);
    if (opts.input.empty())
        opts.input = default_input;
    if (opts.raiseLevel) {
        uhm::FusionStats stats;
        prog = uhm::raiseSemanticLevel(prog, &stats);
        std::fprintf(stderr, "# raised semantic level: %llu fusions, "
                     "%zu -> %zu instructions\n",
                     static_cast<unsigned long long>(stats.totalFused()),
                     stats.instrsBefore, stats.instrsAfter);
    }

    if (opts.disasm) {
        std::fputs(prog.disassemble().c_str(), stdout);
        return 0;
    }
    if (!opts.emitAsm.empty()) {
        std::ofstream out(opts.emitAsm);
        if (!out)
            uhm::fatal("cannot open '%s'", opts.emitAsm.c_str());
        out << uhm::toDirAssembly(prog);
        return 0;
    }
    if (!opts.emitBin.empty()) {
        uhm::saveDirProgram(prog, opts.emitBin);
        return 0;
    }

    if (!opts.tierFlagSeen.empty() &&
        opts.kind != uhm::MachineKind::Tiered)
        uhm::fatal("%s only applies to --machine=tiered (got '%s')",
                   opts.tierFlagSeen.c_str(),
                   uhm::machineKindName(opts.kind));
    if (!opts.schedFlagSeen.empty() && opts.tenants == 0)
        uhm::fatal("%s requires --tenants", opts.schedFlagSeen.c_str());

    auto image = uhm::encodeDir(prog, opts.scheme);
    uhm::MachineConfig cfg;
    cfg.kind = opts.kind;
    cfg.dtb.capacityBytes = opts.dtbBytes;
    cfg.dtb.assoc = opts.assoc;
    cfg.icache.capacityBytes = opts.dtbBytes;
    cfg.icache.assoc = opts.assoc;
    cfg.tier.hotThreshold = opts.tierThreshold;
    cfg.tier.traceCap = opts.traceCap;
    cfg.traceCache.capacityBytes = opts.traceBytes;
    // The bounded typed-event ring rides along only when the user asked
    // for tracing: --trace renders the DTB kinds' INTERP trace from it,
    // and --profile --trace reports it as event lines. The
    // counter/phase report alone stays small, and --trace alone on a
    // decode-every-instruction kind, which has no INTERP trace, records
    // nothing. A timeline is built *from* the ring, so --timeline
    // enables it too — with a much deeper ring, since a truncated
    // timeline is a lot less useful than a truncated event list.
    cfg.profileEvents =
        (opts.trace &&
         (opts.profile || !uhm::decodesEveryInstr(opts.kind))) ||
        !opts.timelinePath.empty();
    if (!opts.timelinePath.empty())
        cfg.profileEventCapacity =
            std::max<size_t>(cfg.profileEventCapacity, size_t{1} << 20);
    cfg.sampleIntervalCycles = opts.sampleInterval;

    if (opts.tenants > 0)
        return runMultiTenant(opts, prog, cfg);

    uhm::Machine machine(*image, cfg);
    uhm::RunResult r = machine.run(opts.input);

    for (int64_t v : r.output)
        std::printf("%lld\n", static_cast<long long>(v));

    std::fprintf(stderr,
                 "# %s / %s: %llu DIR instrs, %llu cycles "
                 "(%.2f cycles/instr), image %llu bits\n",
                 uhm::machineKindName(opts.kind),
                 uhm::encodingName(opts.scheme),
                 static_cast<unsigned long long>(r.dirInstrs),
                 static_cast<unsigned long long>(r.cycles),
                 r.avgInterpTime(),
                 static_cast<unsigned long long>(image->bitSize()));
    if (opts.kind == uhm::MachineKind::Dtb ||
        opts.kind == uhm::MachineKind::Dtb2 ||
        opts.kind == uhm::MachineKind::Tiered) {
        std::fprintf(stderr, "# dtb hit ratio %.4f", r.dtbHitRatio);
        if (opts.kind == uhm::MachineKind::Dtb2)
            std::fprintf(stderr, ", L1 hit ratio %.4f", r.dtbL1HitRatio);
        if (opts.kind == uhm::MachineKind::Tiered)
            std::fprintf(stderr,
                         ", trace coverage %.4f, trace hit ratio %.4f",
                         r.traceCoverage, r.traceHitRatio);
        std::fprintf(stderr, "\n");
    }
    if (opts.stats) {
        std::fprintf(stderr, "# breakdown: fetch=%llu decode=%llu "
                     "stage=%llu dispatch=%llu semantic=%llu "
                     "translate=%llu translate2=%llu\n",
                     static_cast<unsigned long long>(r.breakdown.fetch),
                     static_cast<unsigned long long>(r.breakdown.decode),
                     static_cast<unsigned long long>(r.breakdown.stage),
                     static_cast<unsigned long long>(
                         r.breakdown.dispatch),
                     static_cast<unsigned long long>(
                         r.breakdown.semantic),
                     static_cast<unsigned long long>(
                         r.breakdown.translate),
                     static_cast<unsigned long long>(
                         r.breakdown.translate2));
        printCounters(r.counters);
    }
    if (r.eventsDropped > 0) {
        std::fprintf(stderr,
                     "# warning: event ring overflowed — dropped %llu "
                     "of %llu events (raise the ring capacity); the "
                     "trace and timeline cover only the run's tail\n",
                     static_cast<unsigned long long>(r.eventsDropped),
                     static_cast<unsigned long long>(r.eventsSeen));
    }
    uhm::ProfileMeta meta;
    meta.program = opts.program;
    meta.machine = uhm::machineKindName(opts.kind);
    meta.encoding = uhm::encodingName(opts.scheme);
    meta.imageBits = image->bitSize();
    if (opts.profile || !opts.timelinePath.empty()) {
        uhm::obs::ProfileData profile = uhm::buildProfile(meta, r);
        if (opts.profile)
            uhm::obs::emitProfileJsonl(profile, opts.profilePath);
        if (!opts.timelinePath.empty())
            uhm::obs::emitChromeTrace(profile, opts.timelinePath);
    }
    if (opts.trace) {
        // From the ring: after an overflow (warned above) these are
        // the retained tail's lookups, not the run's first ones.
        const std::vector<uhm::InterpStep> steps =
            uhm::interpSteps(r.events);
        const size_t shown = std::min<size_t>(steps.size(), 200);
        for (size_t i = 0; i < shown; ++i)
            std::fprintf(stderr, "# %s\n", steps[i].toString().c_str());
        if (shown == 200)
            std::fprintf(stderr, "# ... (%zu more events)\n",
                         steps.size() - shown);
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
