/**
 * @file
 * uhm_serve: the persistent UHM daemon.
 *
 * Binds a unix-domain socket, serves line-delimited JSON requests (see
 * serve/proto.hh for the grammar) and runs until SIGINT/SIGTERM or a
 * `{"verb":"shutdown"}` request. On exit it can dump the serve-track
 * timeline (--timeline=) and the serve.* counters (--stats).
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "obs/emit.hh"
#include "serve/server.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/pool.hh"

namespace
{

volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int)
{
    g_signal = 1;
}

void
printHelp(std::FILE *out)
{
    std::fputs(
        "usage: uhm_serve [options]\n"
        "\n"
        "Serve UHM simulations over a unix-domain socket (JSONL\n"
        "protocol; see src/serve/proto.hh). Runs until SIGINT,\n"
        "SIGTERM or a {\"verb\":\"shutdown\"} request.\n"
        "\n"
        "options:\n"
        "  --socket=PATH        listen path "
        "(default /tmp/uhm_serve.sock)\n"
        "  --workers=N          pool workers, at most 256 (default: "
        "UHM_JOBS or hardware)\n"
        "  --max-sessions=N     session-cache capacity (default 32)\n"
        "  --max-queue=N        in-flight cap before 'overloaded' "
        "(default 128)\n"
        "  --slice-cycles=N     cycles per execution slice "
        "(default 50000)\n"
        "  --timeline=FILE      dump the serve-track Chrome trace on "
        "exit\n"
        "  --timeline-events=N  serve-track event ring capacity, at "
        "most 16777216 (default 1048576)\n"
        "  --window=SECS        rolling metrics window width "
        "(default 60)\n"
        "  --stats              dump serve.* counters to stderr on "
        "exit\n"
        "  --help               this text\n",
        out);
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    uhm::serve::ServerConfig cfg;
    std::string timeline_path;
    bool stats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        // Range-checked before anything starts. Every count but
        // --workers (where 0 means "default") must be at least 1: a
        // ring, queue or slice of zero could never serve a request.
        auto uintValue = [&](const char *prefix, uint64_t min,
                             uint64_t max) -> uint64_t {
            const std::string flag(prefix, std::strlen(prefix) - 1);
            return uhm::parseUintFlag(flag.c_str(), value(prefix), min,
                                      max);
        };
        if (arg.rfind("--socket=", 0) == 0)
            cfg.socketPath = value("--socket=");
        else if (arg.rfind("--workers=", 0) == 0)
            cfg.workers = static_cast<unsigned>(uintValue(
                "--workers=", 0, uhm::maxJobs));
        else if (arg.rfind("--max-sessions=", 0) == 0)
            cfg.maxSessions = uintValue("--max-sessions=", 1, SIZE_MAX);
        else if (arg.rfind("--max-queue=", 0) == 0)
            cfg.maxQueue = uintValue("--max-queue=", 1, SIZE_MAX);
        else if (arg.rfind("--slice-cycles=", 0) == 0)
            cfg.sliceCycles = uintValue("--slice-cycles=", 1, UINT64_MAX);
        else if (arg.rfind("--timeline=", 0) == 0)
            timeline_path = value("--timeline=");
        else if (arg.rfind("--timeline-events=", 0) == 0)
            cfg.eventCapacity = uintValue(
                "--timeline-events=", 1,
                uhm::serve::ServerConfig::maxEventCapacity);
        else if (arg.rfind("--window=", 0) == 0)
            cfg.windowUs = uintValue("--window=", 1,
                                     UINT64_MAX / 1'000'000) * 1'000'000;
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return 0;
        } else {
            printHelp(stderr);
            uhm::fatal("unknown option '%s'", arg.c_str());
        }
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    uhm::serve::Server server(cfg);
    server.start();
    std::fprintf(stderr, "# uhm_serve: listening on %s\n",
                 cfg.socketPath.c_str());

    while (!server.stopRequested() && g_signal == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();

    uhm::obs::ProfileData profile = server.statsProfile(false);
    if (stats) {
        for (const auto &kv : profile.counters)
            std::fprintf(stderr, "# %s = %llu\n", kv.first.c_str(),
                         static_cast<unsigned long long>(kv.second));
    }
    if (!timeline_path.empty())
        uhm::obs::emitChromeTrace(profile, timeline_path);
    std::fprintf(stderr, "# uhm_serve: stopped\n");
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
