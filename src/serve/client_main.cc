/**
 * @file
 * uhm_client: command-line client for a running uhm_serve daemon.
 *
 * Mirrors uhm_cli's output conventions so served results diff cleanly
 * against cold CLI runs. It takes uhm_cli's eight machine-setting
 * flags through the same parser (uhm::takeSettingsFlags) and sends
 * each one that is off its default as its wire field: run output values go to stdout one per line,
 * the profile payload goes to --out= (default: stderr), a sweep/stats
 * payload goes to --out= (default: stdout).
 *
 * --jobs=N opens N connections and sends the same request
 * concurrently; the client then verifies every response carried
 * byte-identical payloads and identical output values, exiting 1 on
 * any divergence — the wire-level determinism check used by the tests
 * and the CI smoke job.
 */

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/pool.hh"
#include "uhm/settings.hh"

namespace
{

struct Options
{
    std::string socketPath = "/tmp/uhm_serve.sock";
    std::string verb = "run";
    std::string program;
    std::vector<std::string> positional;
    /** The eight machine settings; those off their defaults are sent. */
    uhm::MachineSettings settings;
    std::vector<int64_t> input;
    bool haveSeed = false;
    uint64_t seed = 0;
    bool profile = false;
    bool disasm = false;
    bool reset = false;
    std::string outPath;
    std::string rawJson;
    unsigned jobs = 1;
    uint64_t id = 0;
    /** metrics payload format ("" = daemon default, json). */
    std::string format;
    /** --watch refresh period; watching when > 0. */
    double watchSecs = 0.0;
    /** --count: watch iterations (0 = until interrupted). */
    uint64_t count = 0;
};

void
printHelp(std::FILE *out)
{
    std::fputs(
        "usage: uhm_client [options] [program ...]\n"
        "\n"
        "Send one request to a uhm_serve daemon and print the\n"
        "response. Run output values go to stdout (like uhm_cli);\n"
        "payloads go to --out=.\n"
        "\n"
        "options:\n"
        "  --socket=PATH      daemon socket "
        "(default /tmp/uhm_serve.sock)\n"
        "  --verb=V           ping|compile|encode|run|profile|sweep|"
        "stats|metrics|shutdown (default run)\n"
        "  --format=F         metrics payload: json|prometheus "
        "(default json)\n"
        "  --watch=SECS       live monitor: poll the metrics verb "
        "every SECS seconds\n"
        "  --count=N          stop --watch after N refreshes "
        "(default: until ^C)\n"
        "  --machine=KIND     conventional|cached|dtb|dtb2|tiered\n"
        "  --encoding=E       expanded|packed|contextual|huffman|"
        "pair-huffman|quantized\n"
        "  --dtb-bytes=N      DTB/icache capacity (default 4096)\n"
        "  --assoc=N          DTB/icache ways, 0 = full (default 4)\n"
        "  --tier-threshold=N, --trace-cap=N, --trace-bytes=N\n"
        "                     trace formation and trace cache "
        "(tiered only)\n"
        "  --sample-interval=N  occupancy sampling period in cycles\n"
        "  --input=a,b,c      read-statement input values\n"
        "  --seed=N           synthetic workload seed\n"
        "  --profile          attach the profile payload to a run\n"
        "  --disasm           attach the disassembly to a compile\n"
        "  --reset            stats: zero the counters after\n"
        "  --out=FILE         write the payload to FILE\n"
        "  --id=N             request id (fan-out uses N..N+jobs-1)\n"
        "  --jobs=N           send N (at most 256) concurrent copies "
        "and verify byte-identical responses\n"
        "  --json=RAW         send RAW as the request line verbatim\n"
        "  --help             this text\n",
        out);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    std::vector<std::string> args(argv + 1, argv + argc);
    // The machine settings parse exactly as uhm_cli's do.
    opts.settings = uhm::takeSettingsFlags(args);
    for (const std::string &arg : args) {
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--socket=", 0) == 0)
            opts.socketPath = value("--socket=");
        else if (arg.rfind("--verb=", 0) == 0)
            opts.verb = value("--verb=");
        else if (arg.rfind("--input=", 0) == 0)
            opts.input = uhm::parseIntListFlag("--input",
                                               value("--input="));
        else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = uhm::parseUintFlag("--seed", value("--seed="), 0,
                                           UINT64_MAX);
            opts.haveSeed = true;
        } else if (arg == "--profile")
            opts.profile = true;
        else if (arg == "--disasm")
            opts.disasm = true;
        else if (arg == "--reset")
            opts.reset = true;
        else if (arg.rfind("--out=", 0) == 0)
            opts.outPath = value("--out=");
        else if (arg.rfind("--id=", 0) == 0)
            opts.id = uhm::parseUintFlag("--id", value("--id="), 0,
                                         UINT64_MAX);
        else if (arg.rfind("--jobs=", 0) == 0)
            opts.jobs = static_cast<unsigned>(uhm::parseUintFlag(
                "--jobs", value("--jobs="), 1, uhm::maxJobs));
        else if (arg.rfind("--format=", 0) == 0)
            opts.format = value("--format=");
        else if (arg.rfind("--watch=", 0) == 0) {
            opts.watchSecs = uhm::parsePositiveFlag("--watch",
                                                    value("--watch="));
        } else if (arg.rfind("--count=", 0) == 0)
            opts.count = uhm::parseUintFlag("--count", value("--count="),
                                            0, UINT64_MAX);
        else if (arg.rfind("--json=", 0) == 0)
            opts.rawJson = value("--json=");
        else if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            printHelp(stderr);
            uhm::fatal("unknown option '%s'", arg.c_str());
        } else {
            opts.positional.push_back(arg);
        }
    }
    if (!opts.positional.empty())
        opts.program = opts.positional.front();
    return opts;
}

/** Build the request line opts describes (id overridden per copy). */
std::string
buildRequest(const Options &opts, uint64_t id)
{
    uhm::JsonWriter jw;
    jw.beginObject();
    jw.key("id").value(id);
    jw.key("verb").value(opts.verb);
    if (!opts.program.empty() && opts.verb != "sweep")
        jw.key("program").value(opts.program);
    if (opts.verb == "sweep" && !opts.positional.empty()) {
        jw.key("programs").beginArray();
        for (const std::string &name : opts.positional)
            jw.value(name);
        jw.endArray();
    }
    // A setting left at its default is not sent: the daemon applies
    // the same default, and verbs without a machine take none.
    const uhm::MachineSettings &s = opts.settings;
    const uhm::MachineSettings d;
    if (s.kind != d.kind)
        jw.key("machine").value(uhm::machineKindName(s.kind));
    if (s.scheme != d.scheme)
        jw.key("encoding").value(uhm::encodingName(s.scheme));
    auto uintSetting = [&](const char *field, uint64_t v, uint64_t def) {
        if (v != def)
            jw.key(field).value(v);
    };
    uintSetting("dtb_bytes", s.dtbBytes, d.dtbBytes);
    uintSetting("assoc", s.assoc, d.assoc);
    uintSetting("tier_threshold", s.tierThreshold, d.tierThreshold);
    uintSetting("trace_cap", s.traceCap, d.traceCap);
    uintSetting("trace_bytes", s.traceBytes, d.traceBytes);
    uintSetting("sample_interval", s.sampleInterval, d.sampleInterval);
    if (opts.haveSeed)
        jw.key("seed").value(opts.seed);
    if (!opts.input.empty()) {
        jw.key("input").beginArray();
        for (int64_t v : opts.input)
            jw.value(v);
        jw.endArray();
    }
    if (opts.profile)
        jw.key("profile").value(true);
    if (opts.disasm)
        jw.key("disasm").value(true);
    if (opts.reset)
        jw.key("reset").value(true);
    if (!opts.format.empty())
        jw.key("format").value(opts.format);
    jw.endObject();
    return jw.str();
}

/** Print one response the way uhm_cli would have. */
int
printResponse(const Options &opts, const uhm::serve::Response &r)
{
    if (!r.ok) {
        std::fprintf(stderr, "error: %s: %s\n", r.error.c_str(),
                     r.message.c_str());
        return 1;
    }
    if (const uhm::serve::JsonValue *out = r.doc.find("output")) {
        for (const uhm::serve::JsonValue &v : out->array)
            std::printf("%lld\n", static_cast<long long>(v.integer));
    }
    if (const uhm::serve::JsonValue *d = r.doc.find("disasm"))
        std::fputs(d->string.c_str(), stdout);
    std::fprintf(stderr,
                 "# id %llu: ok, %zu payload lines, wait %llu us, "
                 "service %llu us%s\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<size_t>(r.uintField("payload_lines")),
                 static_cast<unsigned long long>(r.uintField("wait_us")),
                 static_cast<unsigned long long>(
                     r.uintField("service_us")),
                 r.doc.find("cached") != nullptr &&
                         r.doc.find("cached")->boolean ?
                     " (cached)" : "");
    if (r.payload.empty())
        return 0;
    if (!opts.outPath.empty()) {
        std::ofstream out(opts.outPath);
        if (!out)
            uhm::fatal("cannot open '%s'", opts.outPath.c_str());
        out << r.payload;
    } else if (const std::string verb = r.doc.find("verb")->string;
               verb == "sweep" || verb == "stats" || verb == "metrics") {
        // The answered verb, not --verb, which --json leaves at "run".
        std::fputs(r.payload.c_str(), stdout);
    } else {
        std::fputs(r.payload.c_str(), stderr);
    }
    return 0;
}

/** Numeric member of @p v by @p key (0.0 when absent). */
double
num(const uhm::serve::JsonValue &v, const char *key)
{
    const uhm::serve::JsonValue *m = v.find(key);
    if (m == nullptr)
        return 0.0;
    return m->kind == uhm::serve::JsonValue::Kind::Int ?
        static_cast<double>(m->integer) : m->number;
}

/** One "  name   p50 .. p99 .. mean .. max .. (n)" quantile row. */
void
printQuantileRow(const char *label, const uhm::serve::JsonValue &scope,
                 const char *key)
{
    const uhm::serve::JsonValue *q = scope.find(key);
    if (q == nullptr)
        return;
    std::printf("  %-12s p50 %9.1f  p95 %9.1f  p99 %9.1f  "
                "mean %9.1f  max %9.0f  (n=%llu)\n",
                label, num(*q, "p50"), num(*q, "p95"), num(*q, "p99"),
                num(*q, "mean"), num(*q, "max"),
                static_cast<unsigned long long>(num(*q, "count")));
}

/** Render one --watch frame from a parsed metrics payload. */
void
renderMetrics(const uhm::serve::JsonValue &m)
{
    const uhm::serve::JsonValue *w = m.find("window");
    const uhm::serve::JsonValue *l = m.find("lifetime");
    const uhm::serve::JsonValue *e = m.find("events");
    std::printf("uhm_serve metrics  (window %.0fs, span %.1fs)\n",
                num(m, "window_us") / 1e6, num(m, "span_us") / 1e6);
    if (w != nullptr) {
        const uhm::serve::JsonValue *cache = w->find("cache");
        std::printf("  %-12s %9.1f rps   requests %llu   errors %llu   "
                    "overloaded %llu\n",
                    "window", num(*w, "rps"),
                    static_cast<unsigned long long>(num(*w, "requests")),
                    static_cast<unsigned long long>(num(*w, "errors")),
                    static_cast<unsigned long long>(
                        num(*w, "overloaded")));
        if (cache != nullptr)
            std::printf("  %-12s %5.1f%% hit rate  (%llu hits, "
                        "%llu misses)\n",
                        "cache", num(*cache, "hit_rate") * 100.0,
                        static_cast<unsigned long long>(
                            num(*cache, "hits")),
                        static_cast<unsigned long long>(
                            num(*cache, "misses")));
        printQuantileRow("wait_us", *w, "wait_us");
        printQuantileRow("service_us", *w, "service_us");
        printQuantileRow("slice_us", *w, "slice_us");
        printQuantileRow("queue_depth", *w, "queue_depth");
    }
    if (l != nullptr)
        std::printf("  %-12s requests %llu   responses %llu   "
                    "errors %llu   inflight %llu\n",
                    "lifetime",
                    static_cast<unsigned long long>(num(*l, "requests")),
                    static_cast<unsigned long long>(
                        num(*l, "responses")),
                    static_cast<unsigned long long>(num(*l, "errors")),
                    static_cast<unsigned long long>(
                        num(*l, "inflight")));
    if (e != nullptr)
        std::printf("  %-12s %llu seen, %llu dropped "
                    "(drop rate %.4f)\n",
                    "events",
                    static_cast<unsigned long long>(num(*e, "seen")),
                    static_cast<unsigned long long>(num(*e, "dropped")),
                    num(*e, "drop_rate"));
    std::fflush(stdout);
}

/** The --watch loop: poll the metrics verb until --count or ^C. */
int
watchLoop(const Options &opts)
{
    uhm::serve::Client client(opts.socketPath);
    const bool clear = isatty(STDOUT_FILENO) != 0;
    for (uint64_t i = 0; opts.count == 0 || i < opts.count; ++i) {
        if (i != 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                opts.watchSecs));
        Options req = opts;
        req.verb = "metrics";
        uhm::serve::Response r = client.call(
            buildRequest(req, opts.id + i));
        if (!r.ok) {
            std::fprintf(stderr, "error: %s: %s\n", r.error.c_str(),
                         r.message.c_str());
            return 1;
        }
        if (clear)
            std::fputs("\033[H\033[2J", stdout);
        if (opts.format == "prometheus") {
            std::fputs(r.payload.c_str(), stdout);
            std::fflush(stdout);
            continue;
        }
        uhm::serve::JsonValue metrics;
        std::string err;
        if (!uhm::serve::parseJson(r.payload, metrics, err))
            uhm::fatal("bad metrics payload: %s", err.c_str());
        renderMetrics(metrics);
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    Options opts = parseArgs(argc, argv);

    if (opts.watchSecs > 0.0)
        return watchLoop(opts);

    if (opts.jobs <= 1) {
        uhm::serve::Client client(opts.socketPath);
        std::string line = opts.rawJson.empty() ?
            buildRequest(opts, opts.id) : opts.rawJson;
        return printResponse(opts, client.call(line));
    }

    // Fan-out: every copy runs on its own connection; the responses
    // must agree byte for byte.
    std::vector<uhm::serve::Response> responses(opts.jobs);
    std::vector<std::thread> threads;
    threads.reserve(opts.jobs);
    for (unsigned i = 0; i < opts.jobs; ++i) {
        threads.emplace_back([&, i] {
            uhm::serve::Client client(opts.socketPath);
            std::string line = opts.rawJson.empty() ?
                buildRequest(opts, opts.id + i) : opts.rawJson;
            responses[i] = client.call(line);
        });
    }
    for (std::thread &t : threads)
        t.join();

    auto outputOf = [](const uhm::serve::Response &r) {
        std::vector<int64_t> values;
        if (const uhm::serve::JsonValue *out = r.doc.find("output"))
            for (const uhm::serve::JsonValue &v : out->array)
                values.push_back(v.integer);
        return values;
    };
    int divergent = 0;
    for (unsigned i = 1; i < opts.jobs; ++i) {
        if (responses[i].ok != responses[0].ok ||
            outputOf(responses[i]) != outputOf(responses[0]) ||
            responses[i].payload != responses[0].payload) {
            std::fprintf(stderr,
                         "error: response %u diverges from response 0 "
                         "(%zu vs %zu payload bytes)\n",
                         i, responses[i].payload.size(),
                         responses[0].payload.size());
            divergent = 1;
        }
    }
    std::fprintf(stderr, "# fan-out: %u concurrent requests, %s\n",
                 opts.jobs,
                 divergent ? "DIVERGENT responses" :
                             "byte-identical responses");
    int rc = printResponse(opts, responses[0]);
    return divergent != 0 ? 1 : rc;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
