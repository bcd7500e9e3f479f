/**
 * @file
 * bench_serve — open-loop load generator for the uhm_serve daemon.
 *
 * Starts an in-process server on a private unix-domain socket and
 * drives it with synthetic traffic mixes:
 *
 *  - hot:   every request re-runs the same program — the session
 *           cache's best case (one miss, then all warm hits);
 *  - zipf:  requests draw programs from the sample corpus with
 *           zipfian popularity — a realistic skew where the cache
 *           holds the head and churns the tail;
 *  - churn: every request is a synthetic program with a fresh seed —
 *           the worst case (every request compiles cold and fights
 *           for cache slots).
 *
 * The generator is open-loop: request i has a *scheduled* arrival
 * time i/λ and its latency is measured from that schedule, not from
 * the send, so server-side queueing shows up as latency instead of
 * silently throttling the offered load. The offered rate λ is
 * calibrated from the warm service time of the mix's median request,
 * targeting ~50% utilization of the server's workers, which keeps the
 * measured latencies meaningful across fast and slow hosts.
 *
 * Emits a table on stdout and a JSON document to --out=
 * (default BENCH_serve.json; schema in docs/BENCHMARKS.md). Latency
 * metrics carry the gated _ms suffix; rates and hit ratios are
 * reported ungated.
 *
 * Usage: bench_serve [--out=FILE] [--requests=N] [--connections=N]
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/window.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/pool.hh"
#include "support/rng.hh"
#include "workload/samples.hh"

using namespace uhm;

namespace
{

/** Largest --requests per mix: latency samples and the queue bound
 *  (4 x requests) are allocated up front. */
constexpr uint64_t maxRequests = 1'000'000;

double
nowMs()
{
    using namespace std::chrono;
    return static_cast<double>(
               duration_cast<microseconds>(
                   steady_clock::now().time_since_epoch())
                   .count()) /
        1000.0;
}

std::string
benchSocketPath(const char *tag)
{
    return "/tmp/uhm_bench_serve_" + std::to_string(::getpid()) + "_" +
        tag + ".sock";
}

/** One traffic mix: request lines i = 0..n-1. */
struct Mix
{
    const char *name;
    /** Build request line i (ids must be unique per request). */
    std::string (*request)(size_t i);
};

std::string
runLine(uint64_t id, const std::string &program)
{
    return R"({"id":)" + std::to_string(id) +
        R"(,"verb":"run","program":")" + program + R"("})";
}

std::string
hotRequest(size_t i)
{
    return runLine(i, "fib");
}

/**
 * Zipfian popularity over the sample corpus: program rank r is drawn
 * with weight 1/(r+1). Deterministic in the request index.
 */
std::string
zipfRequest(size_t i)
{
    const auto &samples = workload::samplePrograms();
    static const std::vector<double> cumulative = [] {
        std::vector<double> c;
        double total = 0;
        for (size_t r = 0; r < workload::samplePrograms().size(); ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            c.push_back(total);
        }
        return c;
    }();
    Rng rng(0x5e12f + i);
    double u = rng.uniform() * cumulative.back();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return runLine(i, samples[std::min(rank, samples.size() - 1)].name);
}

std::string
churnRequest(size_t i)
{
    // A fresh seed per request: no two requests share a session, so
    // every one compiles cold and churns the cache.
    return R"({"id":)" + std::to_string(i) +
        R"(,"verb":"run","program":"synthetic","seed":)" +
        std::to_string(9000 + i) + "}";
}

struct MixResult
{
    std::string name;
    double offeredRps = 0;
    double achievedRps = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double meanMs = 0;
    /** Server-side service time (daemon histogram), excludes queueing. */
    double serviceP50Ms = 0;
    double serviceP99Ms = 0;
    double cacheHitPct = 0;
    uint64_t overloaded = 0;
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Drive @p mix with @p requests open-loop requests. */
MixResult
runMix(const Mix &mix, size_t requests, unsigned connections,
       unsigned workers)
{
    serve::ServerConfig cfg;
    cfg.socketPath = benchSocketPath(mix.name);
    cfg.workers = workers;
    cfg.maxSessions = 8; // small enough for churn to actually evict
    cfg.maxQueue = 4 * requests; // measure queueing, not rejection
    serve::Server server(cfg);
    server.start();

    // Calibrate with a short closed-loop burst of representative
    // requests (ids above the measured range) across the same number
    // of connections, then offer half the rate it achieved. Measuring
    // under real concurrency matters: an unloaded serial probe
    // overestimates capacity and turns the whole run into a queueing
    // backlog. The burst also warms the cache exactly the way the mix
    // itself would.
    double calibrated_rps;
    {
        const size_t probeCount = 48;
        std::vector<std::thread> probes;
        std::atomic<size_t> probeIndex{0};
        double t0 = nowMs();
        for (unsigned c = 0; c < connections; ++c) {
            probes.emplace_back([&] {
                serve::Client client(cfg.socketPath);
                for (;;) {
                    size_t i = probeIndex.fetch_add(1);
                    if (i >= probeCount)
                        break;
                    serve::Response r =
                        client.call(mix.request(requests + i));
                    if (!r.ok)
                        fatal("calibration request failed: %s",
                              r.message.c_str());
                }
            });
        }
        for (std::thread &t : probes)
            t.join();
        calibrated_rps =
            static_cast<double>(probeCount) * 1000.0 / (nowMs() - t0);
    }
    double offered_rps = 0.5 * calibrated_rps;
    // Count only the measured phase in the server's statistics.
    server.statsProfile(true);

    std::vector<double> latency(requests, 0);
    std::vector<std::thread> threads;
    std::atomic<size_t> nextIndex{0};
    double start = nowMs() + 5.0; // senders sync on a common epoch

    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&] {
            serve::Client client(cfg.socketPath);
            for (;;) {
                size_t i = nextIndex.fetch_add(1);
                if (i >= requests)
                    break;
                double due =
                    start + static_cast<double>(i) * 1000.0 /
                        offered_rps;
                double now = nowMs();
                if (now < due)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(static_cast<long>(
                            (due - now) * 1000.0)));
                serve::Response r = client.call(mix.request(i));
                if (!r.ok)
                    fatal("request %zu failed: %s", i,
                          r.message.c_str());
                // Open-loop latency: from the *scheduled* arrival.
                latency[i] = nowMs() - due;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    double elapsed_ms = nowMs() - start;

    obs::ProfileData stats = server.statsProfile(false);
    server.stop();

    MixResult result;
    result.name = mix.name;
    result.offeredRps = offered_rps;
    result.achievedRps =
        static_cast<double>(requests) * 1000.0 / elapsed_ms;
    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    result.p50Ms = percentile(sorted, 0.50);
    result.p99Ms = percentile(sorted, 0.99);
    double sum = 0;
    for (double v : latency)
        sum += v;
    result.meanMs = sum / static_cast<double>(requests);
    const obs::HistogramSnapshot &service =
        stats.histograms.at("serve.service_us");
    result.serviceP50Ms = obs::histogramPercentile(service, 0.50) / 1e3;
    result.serviceP99Ms = obs::histogramPercentile(service, 0.99) / 1e3;
    uint64_t hits = stats.counters.at("serve.cache.hits");
    uint64_t misses = stats.counters.at("serve.cache.misses");
    result.cacheHitPct = hits + misses == 0 ?
        0 :
        100.0 * static_cast<double>(hits) /
            static_cast<double>(hits + misses);
    result.overloaded = stats.counters.at("serve.overloaded");
    return result;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string out_path = "BENCH_serve.json";
    size_t requests = 200;
    unsigned connections = 4;
    const unsigned workers = 4; // fixed so the JSON reproduces

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--requests=", 0) == 0)
            requests = parseUintFlag("--requests", arg.substr(11), 1,
                                     maxRequests);
        else if (arg.rfind("--connections=", 0) == 0)
            // One client thread and connection each.
            connections = static_cast<unsigned>(
                parseUintFlag("--connections", arg.substr(14), 1, maxJobs));
        else
            fatal("unknown option '%s'", arg.c_str());
    }

    // ---- cold vs warm single-request latency --------------------------
    double cold_ms, warm_p50_ms;
    {
        serve::ServerConfig cfg;
        cfg.socketPath = benchSocketPath("coldwarm");
        cfg.workers = workers;
        serve::Server server(cfg);
        server.start();
        serve::Client client(cfg.socketPath);
        const std::string line =
            R"({"id":0,"verb":"profile","program":"qsort"})";
        double t0 = nowMs();
        serve::Response first = client.call(line);
        cold_ms = nowMs() - t0;
        if (!first.ok)
            fatal("cold request failed: %s", first.message.c_str());
        std::vector<double> warm;
        for (int i = 0; i < 20; ++i) {
            double t1 = nowMs();
            serve::Response r = client.call(line);
            if (!r.ok)
                fatal("warm request failed: %s", r.message.c_str());
            warm.push_back(nowMs() - t1);
        }
        std::sort(warm.begin(), warm.end());
        warm_p50_ms = percentile(warm, 0.50);
        server.stop();
    }

    std::printf("bench_serve: %zu requests/mix, %u connections, "
                "%u workers\n\n",
                requests, connections, workers);
    std::printf("cold first request   %8.3f ms\n", cold_ms);
    std::printf("warm p50             %8.3f ms   (speedup %.2fx)\n\n",
                warm_p50_ms, cold_ms / warm_p50_ms);

    // ---- the traffic mixes --------------------------------------------
    const Mix mixes[] = {
        {"hot", hotRequest},
        {"zipf", zipfRequest},
        {"churn", churnRequest},
    };
    std::vector<MixResult> results;
    std::printf("%-6s %10s %10s %9s %9s %9s %9s %9s %7s %6s\n",
                "mix", "offered/s", "achieved/s", "p50 ms", "p99 ms",
                "mean ms", "svc p50", "svc p99", "hit %", "rej");
    for (const Mix &mix : mixes) {
        MixResult r = runMix(mix, requests, connections, workers);
        std::printf("%-6s %10.1f %10.1f %9.3f %9.3f %9.3f %9.3f "
                    "%9.3f %7.1f %6llu\n",
                    r.name.c_str(), r.offeredRps, r.achievedRps,
                    r.p50Ms, r.p99Ms, r.meanMs, r.serviceP50Ms,
                    r.serviceP99Ms, r.cacheHitPct,
                    static_cast<unsigned long long>(r.overloaded));
        results.push_back(std::move(r));
    }

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_serve");
    jw.key("requests").value(static_cast<uint64_t>(requests));
    jw.key("connections").value(static_cast<uint64_t>(connections));
    jw.key("workers").value(static_cast<uint64_t>(workers));
    jw.key("cold").beginObject();
    jw.key("cold_ms").value(cold_ms);
    jw.key("warm_p50_ms").value(warm_p50_ms);
    jw.key("warm_speedup").value(cold_ms / warm_p50_ms);
    jw.endObject();
    jw.key("mixes").beginArray();
    for (const MixResult &r : results) {
        jw.beginObject();
        jw.key("mix").value(r.name);
        jw.key("offered_rps").value(r.offeredRps);
        jw.key("achieved_rps").value(r.achievedRps);
        jw.key("p50_ms").value(r.p50Ms);
        jw.key("p99_ms").value(r.p99Ms);
        jw.key("mean_ms").value(r.meanMs);
        jw.key("service_p50_ms").value(r.serviceP50Ms);
        jw.key("service_p99_ms").value(r.serviceP99Ms);
        jw.key("cache_hit_pct").value(r.cacheHitPct);
        jw.key("overloaded").value(r.overloaded);
        jw.endObject();
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
