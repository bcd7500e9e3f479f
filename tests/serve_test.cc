/**
 * @file
 * Tests of the serving subsystem (src/serve): protocol parsing, the
 * session cache's byte-identity and pinning guarantees, backpressure,
 * and the daemon's wire behavior against real unix-domain sockets.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_common.hh"
#include "dir/serialize.hh"
#include "hlr/compiler.hh"
#include "obs/timeline.hh"
#include "obs/window.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/proto.hh"
#include "serve/server.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "uhm/profile.hh"
#include "workload/samples.hh"

using namespace uhm;

namespace
{

/** A fresh socket path per server (tests may run concurrently). */
std::string
testSocketPath()
{
    static int counter = 0;
    return "/tmp/uhm_serve_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++) + ".sock";
}

/**
 * The profile payload a cold single-process run produces — the same
 * pipeline uhm_cli's --profile path executes, built independently of
 * the server.
 */
std::string
coldProfileJsonl(const std::string &name)
{
    const workload::SampleProgram &sample = workload::sampleByName(name);
    DirProgram prog = hlr::compileSource(sample.source);
    serve::MachineSettings settings; // the request-default machine
    auto image = encodeDir(prog, settings.scheme);
    Machine machine(*image, settings.toConfig());
    RunResult r = machine.run(sample.input);
    ProfileMeta meta;
    meta.program = name;
    meta.machine = machineKindName(settings.kind);
    meta.encoding = encodingName(settings.scheme);
    meta.imageBits = image->bitSize();
    return profileJsonl(meta, r);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------

TEST(ServeProto, ParsesJsonDocuments)
{
    serve::JsonValue v;
    std::string err;
    ASSERT_TRUE(serve::parseJson(
        R"({"a":1,"b":[true,null,-2],"c":"x\n","d":1.5})", v, err))
        << err;
    ASSERT_EQ(v.kind, serve::JsonValue::Kind::Object);
    EXPECT_EQ(v.find("a")->integer, 1);
    EXPECT_EQ(v.find("b")->array.size(), 3u);
    EXPECT_TRUE(v.find("b")->array[0].boolean);
    EXPECT_TRUE(v.find("b")->array[1].isNull());
    EXPECT_EQ(v.find("b")->array[2].integer, -2);
    EXPECT_EQ(v.find("c")->string, "x\n");
    EXPECT_DOUBLE_EQ(v.find("d")->number, 1.5);
    EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(ServeProto, RejectsMalformedJson)
{
    serve::JsonValue v;
    std::string err;
    EXPECT_FALSE(serve::parseJson("{\"a\":}", v, err));
    EXPECT_FALSE(serve::parseJson("{\"a\":1} trailing", v, err));
    EXPECT_FALSE(serve::parseJson("{\"a\":1,\"a\":2}", v, err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(ServeProto, ParsesRequestsStrictly)
{
    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        R"({"id":7,"verb":"run","program":"fib","input":[3],)"
        R"("machine":"tiered","trace_cap":32,"profile":true})",
        req, err))
        << err;
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.verb, serve::Verb::Run);
    EXPECT_EQ(req.program, "fib");
    EXPECT_TRUE(req.inputGiven);
    EXPECT_EQ(req.input, (std::vector<int64_t>{3}));
    EXPECT_EQ(req.machine.kind, MachineKind::Tiered);
    EXPECT_EQ(req.machine.traceCap, 32u);
    EXPECT_TRUE(req.profile);

    // A typo'd field must be rejected, not ignored.
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","programm":"fib"})", req, err));
    EXPECT_NE(err.find("unknown field"), std::string::npos);

    // verb is mandatory.
    EXPECT_FALSE(serve::parseRequest(R"({"id":1})", req, err));

    // Tier knobs without a tiered machine: same contract as the CLI.
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","program":"fib","trace_cap":32})", req, err));
    EXPECT_NE(err.find("tiered"), std::string::npos);

    // There is one execution engine; no field selects one.
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","program":"fib","dispatch":"threaded"})", req,
        err));
    EXPECT_NE(err.find("unknown field"), std::string::npos);

    // Narrow fields must not wrap: assoc 2^32 is not "fully
    // associative".
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","program":"fib","assoc":4294967296})", req,
        err));
    EXPECT_NE(err.find("assoc"), std::string::npos);
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","program":"fib","machine":"tiered",)"
        R"("tier_threshold":4294967296})",
        req, err));
    EXPECT_NE(err.find("tier_threshold"), std::string::npos);
}

TEST(ServeProto, FieldsTheVerbDoesNotReadAreRejected)
{
    serve::Request req;
    std::string err;
    // Each verb with every field it reads (a tiered machine, so the
    // tier fields count) is accepted.
    const std::string settings =
        R"("machine":"tiered","encoding":"packed","dtb_bytes":512,)"
        R"("assoc":2,"tier_threshold":4,"trace_cap":32,)"
        R"("trace_bytes":1024,"sample_interval":100)";
    for (const std::string &line :
         {R"({"id":1,"verb":"compile","program":"fib","source":"x",)"
          R"("seed":3,"disasm":true,)" + settings + "}",
          R"({"id":1,"verb":"encode","program":"fib","source":"x",)"
          R"("seed":3,"disasm":true,)" + settings + "}",
          R"({"id":1,"verb":"run","program":"fib","source":"x",)"
          R"("seed":3,"input":[5],"profile":true,)" + settings + "}",
          R"({"id":1,"verb":"profile","program":"fib","source":"x",)"
          R"("seed":3,"input":[5],"profile":true,)" + settings + "}",
          R"({"id":1,"verb":"sweep","programs":["fib"],"seed":3,)" +
              settings + "}",
          std::string(R"({"id":1,"verb":"stats","reset":true})"),
          std::string(R"({"id":1,"verb":"metrics","format":"json"})"),
          std::string(R"({"id":1,"verb":"ping"})"),
          std::string(R"({"id":1,"verb":"shutdown"})")}) {
        SCOPED_TRACE(line);
        EXPECT_TRUE(serve::parseRequest(line, req, err)) << err;
    }

    // A field outside its verbs is a bad request naming the field, the
    // verb and the verbs that do read it — wherever the verb stands.
    struct Case
    {
        const char *line;
        const char *field;
    };
    for (const Case &c :
         {Case{R"({"verb":"sweep","programs":["fib"],"source":"x"})",
               "source"},
          Case{R"({"verb":"sweep","programs":["fib"],"input":[5]})",
               "input"},
          Case{R"({"verb":"sweep","programs":["fib"],"disasm":true})",
               "disasm"},
          Case{R"({"input":[5],"verb":"sweep"})", "input"},
          Case{R"({"verb":"compile","program":"fib","input":[5]})",
               "input"},
          Case{R"({"verb":"run","program":"fib","programs":["fib"]})",
               "programs"},
          Case{R"({"verb":"run","program":"fib","disasm":true})",
               "disasm"},
          Case{R"({"verb":"ping","program":"fib"})", "program"},
          Case{R"({"verb":"shutdown","machine":"dtb"})", "machine"},
          Case{R"({"verb":"stats","format":"json"})", "format"},
          Case{R"({"verb":"metrics","reset":true})", "reset"}}) {
        SCOPED_TRACE(c.line);
        EXPECT_FALSE(serve::parseRequest(c.line, req, err));
        EXPECT_EQ(err.rfind(std::string("'") + c.field +
                                "' is not read by verb ",
                            0),
                  0u)
            << err;
    }
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"sweep","input":[5]})", req, err));
    EXPECT_EQ(err, "'input' is not read by verb sweep (only by run, "
                   "profile)");
}

TEST(ServeProto, TierFieldsFailThroughTheSettingsRule)
{
    // The wire applies the same rule as uhm_cli run and sweep, naming
    // the field it was given.
    for (const char *verb : {"compile", "run", "sweep"}) {
        for (const char *field :
             {"tier_threshold", "trace_cap", "trace_bytes"}) {
            const std::string line = std::string(R"({"verb":")") + verb +
                R"(","machine":"cached",")" + field + R"(":16})";
            SCOPED_TRACE(line);
            serve::Request req;
            std::string err;
            EXPECT_FALSE(serve::parseRequest(line, req, err));
            MachineSettings cached;
            cached.kind = MachineKind::Cached;
            std::string rule;
            try {
                checkTierOnly(cached, field);
            } catch (const FatalError &e) {
                rule = e.what();
            }
            EXPECT_EQ(err, rule);
            EXPECT_NE(err.find(field), std::string::npos);
        }
    }
}

TEST(ServeProto, FingerprintSeparatesConfigs)
{
    serve::MachineSettings a, b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.kind = MachineKind::Tiered;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.dtbBytes = 8192;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// The daemon, over real sockets.
// ---------------------------------------------------------------------

TEST(ServeDaemon, ColdWarmAndConcurrentRunsAreByteIdentical)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 4;
    serve::Server server(cfg);
    server.start();

    const std::string expected = coldProfileJsonl("fib");
    const std::string request =
        R"({"id":1,"verb":"profile","program":"fib"})";

    // Cold, then warm on the same daemon.
    serve::Client client(cfg.socketPath);
    serve::Response cold = client.call(request);
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.doc.find("cached")->boolean);
    EXPECT_EQ(cold.payload, expected);

    serve::Response warm = client.call(request);
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.doc.find("cached")->boolean);
    EXPECT_EQ(warm.payload, expected);

    // 8-way concurrent fan-out: every response must carry the same
    // bytes, whether it hit the warm session or bypassed a busy one.
    constexpr int fanout = 8;
    std::vector<std::string> payloads(fanout);
    std::vector<std::thread> threads;
    for (int i = 0; i < fanout; ++i) {
        threads.emplace_back([&, i] {
            serve::Client c(cfg.socketPath);
            serve::Response r = c.call(request);
            payloads[i] = r.ok ? r.payload : ("ERROR: " + r.message);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < fanout; ++i)
        EXPECT_EQ(payloads[i], expected) << "response " << i;

    server.stop();
}

TEST(ServeDaemon, CompileEncodeAndErrorVerbs)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    serve::Response ping = client.call(R"({"id":1,"verb":"ping"})");
    EXPECT_TRUE(ping.ok);

    serve::Response comp = client.call(
        R"({"id":2,"verb":"compile","program":"fib","disasm":true})");
    ASSERT_TRUE(comp.ok) << comp.message;
    EXPECT_GT(comp.uintField("instrs"), 0u);
    EXPECT_EQ(comp.doc.find("program_hash")->string.size(), 16u);
    EXPECT_FALSE(comp.doc.find("disasm")->string.empty());

    serve::Response enc = client.call(
        R"({"id":3,"verb":"encode","program":"fib"})");
    ASSERT_TRUE(enc.ok) << enc.message;
    // The image must be the exact one a cold process builds.
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("fib").source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    EXPECT_EQ(enc.uintField("image_bits"), image->bitSize());
    // The second compile of the same chain is a cache hit.
    EXPECT_TRUE(enc.doc.find("cached")->boolean);

    // Unknown program -> bad_request, and the daemon keeps serving.
    serve::Response bad = client.call(
        R"({"id":4,"verb":"run","program":"no-such-sample"})");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, "bad_request");

    serve::Response typo =
        client.call(R"({"id":5,"verb":"run","bogus":1})");
    EXPECT_FALSE(typo.ok);
    EXPECT_EQ(typo.error, "bad_request");

    serve::Response after = client.call(R"({"id":6,"verb":"ping"})");
    EXPECT_TRUE(after.ok);

    server.stop();
}

TEST(ServeDaemon, ProgramHashIsFnvOfTheColdSerializedProgram)
{
    // program_hash is FNV-1a over serializeDirProgram of the program a
    // cold compile produces, on a cache miss and a hit alike, and for
    // compile and encode alike (the encoding does not enter it).
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("fib").source);
    std::vector<uint8_t> bytes = serializeDirProgram(prog);
    char expected[24];
    std::snprintf(expected, sizeof(expected), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(bytes.data(), bytes.size())));

    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    serve::Server server(cfg);
    server.start();
    serve::Client client(cfg.socketPath);
    struct Case
    {
        const char *request;
        bool cached;
    };
    for (const Case &c : {
             Case{R"({"id":1,"verb":"compile","program":"fib"})", false},
             Case{R"({"id":2,"verb":"compile","program":"fib"})", true},
             Case{R"({"id":3,"verb":"encode","program":"fib"})", true},
             Case{R"({"id":4,"verb":"encode","program":"fib",)"
                  R"("encoding":"packed"})", false},
             Case{R"({"id":5,"verb":"encode","program":"fib",)"
                  R"("encoding":"packed"})", true}}) {
        serve::Response r = client.call(c.request);
        ASSERT_TRUE(r.ok) << c.request << ": " << r.message;
        EXPECT_EQ(r.doc.find("cached")->boolean, c.cached) << c.request;
        EXPECT_EQ(r.doc.find("program_hash")->string, expected)
            << c.request;
    }
    server.stop();
}

TEST(ServeDaemon, HostExceptionInARunDoesNotKillTheDaemon)
{
    // A wild guest store grows the level-2 backing store past what the
    // host can allocate: the run throws std::length_error, not a
    // FatalError. It must come back as internal_error, its session
    // must not be reused, and the daemon must keep serving.
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    const std::string wild =
        R"({"id":1,"verb":"run","program":"wild","source":)"
        R"("program t; var a[4]; begin )"
        R"(a[1152921504606846976] := 1; write 1; end."})";
    serve::Response crash = client.call(wild);
    EXPECT_FALSE(crash.ok);
    EXPECT_EQ(crash.error, "internal_error");

    serve::Response ping = client.call(R"({"id":2,"verb":"ping"})");
    EXPECT_TRUE(ping.ok);

    // A warm-path run on the same daemon still works and still matches
    // a cold run.
    const std::string fib =
        R"({"id":3,"verb":"profile","program":"fib"})";
    ASSERT_TRUE(client.call(fib).ok);
    serve::Response warm = client.call(fib);
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.doc.find("cached")->boolean);
    EXPECT_EQ(warm.payload, coldProfileJsonl("fib"));

    // The same source again: rebuilt from scratch, it fails the same
    // way, and the daemon still answers.
    serve::Response again = client.call(wild);
    EXPECT_EQ(again.error, "internal_error");
    EXPECT_TRUE(client.call(R"({"id":4,"verb":"ping"})").ok);

    server.stop();
}

TEST(ServeDaemon, ImpossibleGeometryIsABadRequest)
{
    // Buffer geometry comes from the request, so a geometry the
    // buffers cannot be built with is the client's error, not a
    // simulator bug: bad_request, and the daemon keeps serving.
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    for (const char *line :
         {R"({"verb":"run","program":"fib","assoc":100000})",
          R"({"verb":"run","program":"fib","dtb_bytes":1})",
          R"({"verb":"run","program":"fib","machine":"tiered",)"
          R"("trace_bytes":1})",
          R"({"verb":"run","program":"fib","assoc":4294967296})",
          // One byte over the 1 MiB buffer cap, for the DTB, the
          // icache and the trace cache: refused before allocating.
          R"({"verb":"run","program":"fib","dtb_bytes":1048577})",
          R"({"verb":"run","program":"fib","machine":"cached",)"
          R"("dtb_bytes":1048577})",
          R"({"verb":"run","program":"fib","machine":"tiered",)"
          R"("trace_bytes":1048577})",
          // Ways above maxWays (1024): a fully associative buffer at
          // the byte cap, and 1025 ways, on the DTB and the icache.
          R"({"verb":"run","program":"fib","dtb_bytes":1048576,)"
          R"("assoc":0})",
          R"({"verb":"run","program":"fib","dtb_bytes":1048576,)"
          R"("assoc":1025})",
          R"({"verb":"run","program":"fib","machine":"cached",)"
          R"("dtb_bytes":1048576,"assoc":0})",
          R"({"verb":"run","program":"fib","machine":"cached",)"
          R"("dtb_bytes":1048576,"assoc":1025})"}) {
        SCOPED_TRACE(line);
        serve::Response r = client.call(line);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, "bad_request") << r.message;
        EXPECT_TRUE(client.call(R"({"verb":"ping"})").ok);
    }

    server.stop();
}

TEST(ServeCache, DiscardedSessionIsNeverReused)
{
    serve::SessionCache cache(4);
    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        R"({"verb":"run","program":"fib"})", req, err)) << err;

    bool cached = true;
    auto first = cache.acquire(req, cached);
    EXPECT_FALSE(cached);
    cache.release(first);
    auto warm = cache.acquire(req, cached);
    EXPECT_TRUE(cached);
    EXPECT_EQ(warm, first);

    cache.discard(warm);
    EXPECT_EQ(cache.size(), 0u);
    auto rebuilt = cache.acquire(req, cached);
    EXPECT_FALSE(cached);
    EXPECT_NE(rebuilt, first);
    cache.release(rebuilt);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeDaemon, SweepMatchesTheHarnessByteForByte)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    // The reference report of three points on one DTB geometry, with
    // every point's config set here by hand.
    auto reference = [](uint64_t dtb_bytes, unsigned assoc) {
        std::vector<bench::SweepPoint> points;
        for (const std::string name : {"collatz", "fib", "synthetic"}) {
            bench::SweepPoint point;
            point.label = name;
            if (name == "synthetic") {
                point.program = bench::gridWorkload(2, 1978);
            } else {
                const workload::SampleProgram &sample =
                    workload::sampleByName(name);
                point.input = sample.input;
                point.program = hlr::compileSource(sample.source);
            }
            point.config.dtb.capacityBytes = dtb_bytes;
            point.config.dtb.assoc = assoc;
            point.config.icache.capacityBytes = dtb_bytes;
            point.config.icache.assoc = assoc;
            points.push_back(std::move(point));
        }
        bench::SweepRunner runner(2);
        return bench::runSweep(runner, points).jsonl;
    };

    serve::Client client(cfg.socketPath);
    serve::Response r = client.call(
        R"({"id":1,"verb":"sweep","programs":["collatz","fib",)"
        R"("synthetic"]})");
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.payload, reference(4096, 4));

    // The sweep honours the DTB geometry it is sent.
    serve::Response small = client.call(
        R"({"id":2,"verb":"sweep","programs":["collatz","fib",)"
        R"("synthetic"],"machine":"dtb","dtb_bytes":512,"assoc":1})");
    ASSERT_TRUE(small.ok) << small.message;
    EXPECT_EQ(small.payload, reference(512, 1));
    EXPECT_NE(small.payload, r.payload);

    server.stop();
}

TEST(ServeDaemon, SweepWithAnImpossibleGeometryIsABadRequest)
{
    // Every sweep point builds its machine on a harness worker; the
    // geometry error must come back as a bad_request, not end the
    // daemon.
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    for (const char *line :
         {R"({"verb":"sweep","programs":["fib"],"dtb_bytes":1048577})",
          R"({"verb":"sweep","programs":["fib","collatz"],)"
          R"("dtb_bytes":1048576,"assoc":0})",
          R"({"verb":"sweep","programs":["fib"],"machine":"tiered",)"
          R"("trace_bytes":1048577})"}) {
        SCOPED_TRACE(line);
        serve::Response r = client.call(line);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, "bad_request") << r.message;
        EXPECT_TRUE(client.call(R"({"verb":"ping"})").ok);
    }

    server.stop();
}

TEST(ServeDaemon, OverloadIsRejectedExplicitly)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;   // one executor: the first run occupies it
    cfg.maxQueue = 2;  // admit two, reject the rest
    cfg.sliceCycles = 2000;
    serve::Server server(cfg);
    server.start();

    // Pipeline four slow runs without reading a single response: the
    // reader admits 1 and 2, then must reject 3 and 4 immediately.
    serve::Client client(cfg.socketPath);
    for (int id = 1; id <= 4; ++id)
        client.send(R"({"id":)" + std::to_string(id) +
                    R"(,"verb":"run","program":"synthetic"})");

    int ok = 0, overloaded = 0;
    for (int i = 0; i < 4; ++i) {
        serve::Response r = client.recv();
        if (r.ok) {
            ++ok;
            EXPECT_LE(r.id, 2u);
        } else {
            ++overloaded;
            EXPECT_EQ(r.error, "overloaded");
            EXPECT_GE(r.id, 3u);
        }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(overloaded, 2);

    obs::ProfileData stats = server.statsProfile(false);
    EXPECT_EQ(stats.counters.at("serve.overloaded"), 2u);

    server.stop();
}

TEST(ServeDaemon, BusySessionIsPinnedAgainstEviction)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;       // FIFO: the synthetic run starts first
    cfg.maxSessions = 1;   // the second session must try to evict
    cfg.sliceCycles = 500; // many slices -> session 1 stays busy
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    client.send(R"({"id":1,"verb":"run","program":"synthetic"})");
    client.send(R"({"id":2,"verb":"run","program":"fib"})");
    serve::Response first = client.recv();
    serve::Response second = client.recv();
    EXPECT_TRUE(first.ok) << first.message;
    EXPECT_TRUE(second.ok) << second.message;

    // Inserting the fib session exceeded the capacity while the
    // synthetic session was mid-run: the eviction must have been
    // rejected (not torn), and both runs completed correctly.
    obs::ProfileData stats = server.statsProfile(false);
    EXPECT_GE(stats.counters.at("serve.cache.evict_rejected"), 1u);

    // After both runs released their sessions the deferred shrink
    // brings the cache back inside its bound.
    EXPECT_LE(stats.counters.at("serve.cache.size"), 2u);

    server.stop();
}

TEST(ServeDaemon, StatsShutdownAndTimelineTrack)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    ASSERT_TRUE(
        client.call(R"({"id":1,"verb":"run","program":"fib"})").ok);

    serve::Response stats = client.call(R"({"id":2,"verb":"stats"})");
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.payload.find("serve.requests"), std::string::npos);
    EXPECT_NE(stats.payload.find("serve.wait_us"), std::string::npos);

    serve::Response bye = client.call(R"({"id":3,"verb":"shutdown"})");
    EXPECT_TRUE(bye.ok);
    server.waitForStop();
    server.stop();

    // The serve-track events render into the timeline under their own
    // track, stamped with request ids.
    obs::ProfileData profile = server.statsProfile(false);
    EXPECT_FALSE(profile.events.empty());
    std::string trace = obs::toChromeTrace(profile);
    EXPECT_NE(trace.find("\"serve\""), std::string::npos);
    EXPECT_NE(trace.find("serve_enqueue"), std::string::npos);
    EXPECT_NE(trace.find("serve_done"), std::string::npos);
}

// ---------------------------------------------------------------------
// The metrics verb and request-scoped tracing.
// ---------------------------------------------------------------------

namespace
{

/** Numeric member of @p v (int- or double-kinded; 0.0 when absent). */
double
num(const serve::JsonValue &v, const char *key)
{
    const serve::JsonValue *m = v.find(key);
    if (m == nullptr)
        return 0.0;
    return m->kind == serve::JsonValue::Kind::Int ?
        static_cast<double>(m->integer) : m->number;
}

} // anonymous namespace

TEST(ServeProto, MetricsVerbAndFormatField)
{
    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        R"({"id":1,"verb":"metrics"})", req, err))
        << err;
    EXPECT_EQ(req.verb, serve::Verb::Metrics);
    EXPECT_EQ(req.format, "json"); // the default

    ASSERT_TRUE(serve::parseRequest(
        R"({"id":2,"verb":"metrics","format":"prometheus"})", req, err))
        << err;
    EXPECT_EQ(req.format, "prometheus");

    // Unknown formats and formats on non-metrics verbs are rejected.
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"metrics","format":"xml"})", req, err));
    EXPECT_NE(err.find("format"), std::string::npos);
    EXPECT_FALSE(serve::parseRequest(
        R"({"verb":"run","program":"fib","format":"json"})", req, err));
    EXPECT_NE(err.find("metrics"), std::string::npos);
}

TEST(ServeTimeline, VerbLabelsMatchTheProtocol)
{
    // The timeline exporter keeps its own verb table (obs cannot link
    // against serve); this is the drift guard the header promises.
    for (unsigned i = 0;
         i <= static_cast<unsigned>(serve::Verb::Metrics); ++i)
        EXPECT_STREQ(obs::serveVerbLabel(i),
                     serve::verbName(static_cast<serve::Verb>(i)))
            << "verb index " << i;
    EXPECT_STREQ(obs::serveVerbLabel(
                     static_cast<unsigned>(serve::Verb::Metrics) + 1),
                 "?");
}

TEST(ServeDaemon, MetricsMatchesStatsHistograms)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    for (int id = 1; id <= 6; ++id) {
        serve::Response r = client.call(
            R"({"id":)" + std::to_string(id) +
            R"(,"verb":"run","program":"fib"})");
        ASSERT_TRUE(r.ok) << r.message;
    }

    // The reference values, computed independently from the daemon's
    // own stats histograms (the quiesced daemon cannot change them
    // between the two reads — metrics is a monitoring verb).
    obs::ProfileData stats = server.statsProfile(false);
    const obs::HistogramSnapshot &service =
        stats.histograms.at("serve.service_us");
    const obs::HistogramSnapshot &wait =
        stats.histograms.at("serve.wait_us");
    const obs::HistogramSnapshot &depth =
        stats.histograms.at("serve.queue_depth");
    const double hits =
        static_cast<double>(stats.counters.at("serve.cache.hits"));
    const double misses =
        static_cast<double>(stats.counters.at("serve.cache.misses"));

    serve::Response m = client.call(R"({"id":7,"verb":"metrics"})");
    ASSERT_TRUE(m.ok) << m.message;
    serve::JsonValue doc;
    std::string err;
    ASSERT_TRUE(serve::parseJson(m.payload, doc, err)) << err;
    const serve::JsonValue *life = doc.find("lifetime");
    ASSERT_NE(life, nullptr);

    // The JSON writer renders doubles at 12 significant digits, so
    // the round-tripped value matches to a relative 1e-11.
    auto near = [](double got, double want) {
        EXPECT_NEAR(got, want, 1e-9 + std::fabs(want) * 1e-9);
    };
    const serve::JsonValue *svc = life->find("service_us");
    ASSERT_NE(svc, nullptr);
    near(num(*svc, "p50"), obs::histogramPercentile(service, 0.50));
    near(num(*svc, "p99"), obs::histogramPercentile(service, 0.99));
    EXPECT_EQ(num(*svc, "count"), static_cast<double>(service.count));

    const serve::JsonValue *wsum = life->find("wait_us");
    ASSERT_NE(wsum, nullptr);
    near(num(*wsum, "p50"), obs::histogramPercentile(wait, 0.50));
    near(num(*wsum, "p99"), obs::histogramPercentile(wait, 0.99));

    const serve::JsonValue *qd = life->find("queue_depth");
    ASSERT_NE(qd, nullptr);
    near(num(*qd, "p50"), obs::histogramPercentile(depth, 0.50));
    EXPECT_EQ(num(*qd, "max"), static_cast<double>(depth.max));

    const serve::JsonValue *cache = life->find("cache");
    ASSERT_NE(cache, nullptr);
    // The JSON writer renders doubles at 12 significant digits.
    EXPECT_NEAR(num(*cache, "hit_rate"), hits / (hits + misses), 1e-9);
    EXPECT_EQ(num(*cache, "hits"), hits);

    // Six workload runs; the metrics request itself is excluded.
    EXPECT_EQ(num(*life, "requests"), 6.0);
    EXPECT_EQ(num(*life, "responses"), 6.0);

    server.stop();
}

TEST(ServeDaemon, MetricsIsByteIdenticalAcrossConcurrentClients)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 4;
    serve::Server server(cfg);
    server.start();

    serve::Client warmup(cfg.socketPath);
    ASSERT_TRUE(
        warmup.call(R"({"id":1,"verb":"run","program":"fib"})").ok);
    ASSERT_TRUE(
        warmup.call(R"({"id":2,"verb":"run","program":"fib"})").ok);

    // A quiesced daemon must answer every concurrent metrics request
    // with the same bytes: monitoring verbs stay out of every ledger
    // they report, so observing the daemon does not perturb it.
    constexpr int fanout = 8;
    std::vector<std::string> json(fanout), prom(fanout);
    std::vector<std::thread> threads;
    for (int i = 0; i < fanout; ++i) {
        threads.emplace_back([&, i] {
            serve::Client c(cfg.socketPath);
            serve::Response r = c.call(R"({"id":10,"verb":"metrics"})");
            json[i] = r.ok ? r.payload : ("ERROR: " + r.message);
            serve::Response p = c.call(
                R"({"id":11,"verb":"metrics","format":"prometheus"})");
            prom[i] = p.ok ? p.payload : ("ERROR: " + p.message);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 1; i < fanout; ++i) {
        EXPECT_EQ(json[i], json[0]) << "json response " << i;
        EXPECT_EQ(prom[i], prom[0]) << "prometheus response " << i;
    }
    EXPECT_NE(json[0].find("\"type\":\"metrics\""), std::string::npos);
    EXPECT_NE(prom[0].find("# HELP uhm_serve_requests_total"),
              std::string::npos);
    EXPECT_NE(prom[0].find("uhm_serve_service_seconds{quantile=\"0.5\"}"),
              std::string::npos);

    server.stop();
}

TEST(ServeDaemon, TimelineStitchesPerRequestSpanTrees)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    cfg.sliceCycles = 2000; // a synthetic run takes many slices
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    ASSERT_TRUE(client.call(
        R"({"id":1,"verb":"run","program":"synthetic"})").ok);
    ASSERT_TRUE(client.call(
        R"({"id":2,"verb":"run","program":"synthetic"})").ok);
    server.stop();

    obs::ProfileData profile = server.statsProfile(false);
    // The new per-request events are in the ring...
    bool sawAcquire = false, sawSlice = false;
    for (const obs::Event &e : profile.events) {
        sawAcquire |= e.kind == obs::EventKind::ServeAcquire;
        sawSlice |= e.kind == obs::EventKind::ServeSlice;
    }
    EXPECT_TRUE(sawAcquire);
    EXPECT_TRUE(sawSlice);

    // ...and the exporter stitches them into rid-keyed async trees.
    std::string trace = obs::toChromeTrace(profile);
    EXPECT_NE(trace.find("\"cat\":\"serve.request\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"e\""), std::string::npos);
    for (const char *name :
         {"\"name\":\"request\"", "\"name\":\"wait\"",
          "\"name\":\"acquire\"", "\"name\":\"slice\"",
          "\"name\":\"reply\""})
        EXPECT_NE(trace.find(name), std::string::npos) << name;
    // Both requests appear as distinct async ids.
    EXPECT_NE(trace.find("\"id\":\"1\""), std::string::npos);
    EXPECT_NE(trace.find("\"id\":\"2\""), std::string::npos);
    // The run verb and the session tag ride on the request root.
    EXPECT_NE(trace.find("\"verb\":\"run\""), std::string::npos);
    EXPECT_NE(trace.find("\"session\":"), std::string::npos);
}

TEST(ServeDaemon, EventDropRateIsSurfaced)
{
    serve::ServerConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    cfg.eventCapacity = 4; // tiny ring: one run must overflow it
    serve::Server server(cfg);
    server.start();

    serve::Client client(cfg.socketPath);
    ASSERT_TRUE(
        client.call(R"({"id":1,"verb":"run","program":"fib"})").ok);

    serve::Response m = client.call(R"({"id":2,"verb":"metrics"})");
    ASSERT_TRUE(m.ok) << m.message;
    serve::JsonValue doc;
    std::string err;
    ASSERT_TRUE(serve::parseJson(m.payload, doc, err)) << err;
    const serve::JsonValue *events = doc.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(num(*events, "dropped"), 0.0);
    EXPECT_GT(num(*events, "drop_rate"), 0.0);

    // The stats profile carries the same rate as a ratio row.
    obs::ProfileData stats = server.statsProfile(false);
    bool found = false;
    for (const auto &[name, value] : stats.ratios) {
        if (name == "events.drop_rate") {
            found = true;
            EXPECT_GT(value, 0.0);
        }
    }
    EXPECT_TRUE(found);

    server.stop();
}
