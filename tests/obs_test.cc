/**
 * @file
 * Tests for the observability layer: the counters registry, the typed
 * event tracer, the profile reports, and their integration with the
 * machine — the registry view must agree exactly with the legacy
 * accessors and RunResult statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>

#include "hlr/compiler.hh"
#include "obs/counter.hh"
#include "obs/histogram.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "obs/window.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "uhm/machine.hh"
#include "uhm/profile.hh"
#include "workload/samples.hh"

namespace uhm
{
namespace
{

// ---- counters and the registry ---------------------------------------------

TEST(ObsCounter, IncrementAndReset)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    c.add(2);
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(static_cast<uint64_t>(c), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, LiveViewOverRegisteredCounters)
{
    obs::Counter hits, misses;
    obs::Registry reg;
    reg.add("dtb.hits", hits);
    reg.add("dtb.misses", misses);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("dtb.hits"));
    EXPECT_FALSE(reg.contains("dtb.evictions"));
    EXPECT_EQ(reg.get("dtb.hits"), 0u);

    hits += 3;
    ++misses;
    // The registry is a view, not a copy.
    EXPECT_EQ(reg.get("dtb.hits"), 3u);
    EXPECT_EQ(reg.get("dtb.misses"), 1u);
    EXPECT_EQ(reg.get("absent"), 0u);

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.at("dtb.hits"), 3u);
}

TEST(ObsRegistry, HierarchicalTotals)
{
    obs::Counter a, b, c;
    obs::Registry reg;
    reg.add("dtb.hits", a);
    reg.add("dtb.misses", b);
    reg.add("dtbl1.hits", c); // "dtb" prefix must NOT match "dtbl1"
    a += 5;
    b += 2;
    c += 100;
    EXPECT_EQ(reg.total("dtb"), 7u);
    EXPECT_EQ(reg.total("dtbl1"), 100u);
    EXPECT_EQ(reg.total("icache"), 0u);
}

TEST(ObsRegistry, DuplicateNameIsAnInternalError)
{
    obs::Counter a, b;
    obs::Registry reg;
    reg.add("x", a);
    EXPECT_THROW(reg.add("x", b), PanicError);
}

TEST(ObsRegistry, JoinName)
{
    EXPECT_EQ(obs::joinName("dtb", "hits"), "dtb.hits");
    EXPECT_EQ(obs::joinName("", "hits"), "hits");
}

// ---- the event tracer ------------------------------------------------------

TEST(ObsTracer, DisabledRecordsNothing)
{
    obs::Tracer t;
    EXPECT_FALSE(t.enabled());
    t.record(obs::EventKind::DtbHit, 1, 2);
    EXPECT_EQ(t.seen(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST(ObsTracer, RecordsInOrder)
{
    obs::Tracer t;
    t.enable(16);
    for (uint64_t i = 0; i < 5; ++i)
        t.record(obs::EventKind::Fetch, i * 10, i, i + 100);
    EXPECT_EQ(t.seen(), 5u);
    EXPECT_EQ(t.dropped(), 0u);
    auto events = t.events();
    ASSERT_EQ(events.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].cycle, i * 10);
        EXPECT_EQ(events[i].addr, i);
        EXPECT_EQ(events[i].arg, i + 100);
    }
}

TEST(ObsTracer, BoundedRingKeepsNewestAndCountsDropped)
{
    obs::Tracer t;
    t.enable(4);
    for (uint64_t i = 0; i < 10; ++i)
        t.record(obs::EventKind::Decode, i, i);
    EXPECT_EQ(t.seen(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    auto events = t.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest retained first: cycles 6, 7, 8, 9.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].cycle, 6 + i);
}

TEST(ObsTracer, ClearKeepsRingAndEnablement)
{
    obs::Tracer t;
    t.enable(8);
    t.record(obs::EventKind::Trap, 1, 2);
    t.clear();
    EXPECT_TRUE(t.enabled());
    EXPECT_EQ(t.seen(), 0u);
    EXPECT_TRUE(t.events().empty());
    t.record(obs::EventKind::Trap, 3, 4);
    EXPECT_EQ(t.events().size(), 1u);
}

TEST(ObsTracer, EveryKindHasAUniqueStableName)
{
    // Exhaustive over allEventKinds: a new kind that is not appended
    // there (or falls into eventKindName's "?" default) fails here.
    static_assert(std::size(obs::allEventKinds) == obs::numEventKinds);
    std::set<std::string> names;
    for (obs::EventKind kind : obs::allEventKinds) {
        std::string name = obs::eventKindName(kind);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate event kind name " << name;
    }
    EXPECT_EQ(names.size(), obs::numEventKinds);

    // Spot-check stability: these names are schema, not cosmetics —
    // profile consumers and scripts/trace_report.py match on them.
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::DtbMiss),
                 "dtb_miss");
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::Translate2),
                 "translate2");
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::Sample), "sample");
}

// ---- histograms ------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries)
{
    EXPECT_EQ(obs::histogramBucketOf(0), 0u);
    EXPECT_EQ(obs::histogramBucketOf(1), 1u);
    EXPECT_EQ(obs::histogramBucketOf(2), 2u);
    EXPECT_EQ(obs::histogramBucketOf(3), 2u);
    EXPECT_EQ(obs::histogramBucketOf(4), 3u);
    EXPECT_EQ(obs::histogramBucketOf(7), 3u);
    EXPECT_EQ(obs::histogramBucketOf(8), 4u);
    EXPECT_EQ(obs::histogramBucketOf(~uint64_t{0}), 64u);
    for (unsigned b = 0; b < obs::Histogram::numBuckets; ++b) {
        // Each bucket's bounds round-trip through bucketOf.
        EXPECT_EQ(obs::histogramBucketOf(obs::histogramBucketLow(b)), b);
        EXPECT_EQ(obs::histogramBucketOf(obs::histogramBucketHigh(b)),
                  b);
    }
}

TEST(ObsHistogram, RecordSnapshotAndReset)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (uint64_t v : {0, 1, 5, 6, 100})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 112u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.bucketCount(0), 1u); // {0}
    EXPECT_EQ(h.bucketCount(3), 2u); // {5, 6}
    EXPECT_EQ(h.bucketCount(7), 1u); // {100}

    obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 112u);
    // Sparse and bucket-ordered: only the non-empty buckets appear.
    ASSERT_EQ(snap.buckets.size(), 4u);
    EXPECT_EQ(snap.buckets[0], (std::pair<unsigned, uint64_t>{0, 1}));
    EXPECT_EQ(snap.buckets[1], (std::pair<unsigned, uint64_t>{1, 1}));
    EXPECT_EQ(snap.buckets[2], (std::pair<unsigned, uint64_t>{3, 2}));
    EXPECT_EQ(snap.buckets[3], (std::pair<unsigned, uint64_t>{7, 1}));

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.snapshot().buckets.empty());
}

TEST(ObsHistogram, SnapshotMergeAddsCountsAndWidensBounds)
{
    obs::Histogram a, b;
    a.record(2);
    a.record(3);
    b.record(3);
    b.record(40);

    obs::HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 4u);
    EXPECT_EQ(merged.sum, 48u);
    EXPECT_EQ(merged.min, 2u);
    EXPECT_EQ(merged.max, 40u);
    ASSERT_EQ(merged.buckets.size(), 2u);
    EXPECT_EQ(merged.buckets[0], (std::pair<unsigned, uint64_t>{2, 3}));
    EXPECT_EQ(merged.buckets[1], (std::pair<unsigned, uint64_t>{6, 1}));

    // Merging an empty snapshot must not disturb min/max.
    merged.merge(obs::HistogramSnapshot{});
    EXPECT_EQ(merged.min, 2u);
    EXPECT_EQ(merged.max, 40u);
}

TEST(ObsHistogram, JsonShape)
{
    obs::Histogram h;
    h.record(5);
    h.record(9);
    JsonWriter jw;
    h.snapshot().writeJson(jw);
    EXPECT_EQ(jw.str(),
              "{\"count\":2,\"sum\":14,\"min\":5,\"max\":9,"
              "\"buckets\":[[3,1],[4,1]]}");
}

TEST(ObsRegistry, HistogramsRegisterAlongsideCounters)
{
    obs::Counter c;
    obs::Histogram h;
    obs::Registry reg;
    reg.add("dtb.hits", c);
    reg.addHistogram("translate.latency_cycles", h);
    EXPECT_EQ(reg.numHistograms(), 1u);
    EXPECT_TRUE(reg.containsHistogram("translate.latency_cycles"));
    EXPECT_FALSE(reg.containsHistogram("dtb.hits"));

    h.record(12);
    // Live view, same as counters.
    ASSERT_NE(reg.histogram("translate.latency_cycles"), nullptr);
    EXPECT_EQ(reg.histogram("translate.latency_cycles")->count(), 1u);
    auto snap = reg.histogramSnapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap.at("translate.latency_cycles").sum, 12u);

    obs::Histogram dup;
    EXPECT_THROW(reg.addHistogram("translate.latency_cycles", dup),
                 PanicError);
}

// ---- timelines -------------------------------------------------------------

TEST(ObsTimeline, EveryKindHasATrack)
{
    std::set<std::string> tracks;
    for (obs::EventKind kind : obs::allEventKinds) {
        std::string track = obs::eventKindTrack(kind);
        EXPECT_FALSE(track.empty());
        tracks.insert(track);
        int tid = obs::eventKindTrackId(kind);
        EXPECT_GT(tid, 0); // tid 0 is the cycle-bucket overview
        EXPECT_LE(tid, 8); // 8 = the serve track
    }
    // The unit mapping: fetch on the IFU, decode on IU1, dispatch on
    // IU2, translation on the translator, tiering on the tier engine.
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::Fetch), "ifu");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::Decode), "iu1");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::DtbHit), "iu2");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::Translate),
                 "translator");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::TraceEnter),
                 "tier");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::Sample),
                 "sampler");
    EXPECT_STREQ(obs::eventKindTrack(obs::EventKind::ServeEnqueue),
                 "serve");
}

TEST(ObsTimeline, SpansCarveConsecutiveStamps)
{
    using obs::Event;
    using obs::EventKind;
    std::vector<Event> events = {
        {10, 100, 1, EventKind::DtbMiss},
        {25, 100, 2, EventKind::Translate},
        {25, 100, 3, EventKind::DtbHit},
        {40, 104, 4, EventKind::DtbHit},
    };
    auto spans = obs::buildTimelineSpans(events);
    ASSERT_EQ(spans.size(), 4u);
    // The first event has no earlier boundary: it opens at its stamp.
    EXPECT_EQ(spans[0].start, 10u);
    EXPECT_EQ(spans[0].end, 10u);
    EXPECT_EQ(spans[0].kind, EventKind::DtbMiss);
    // Span i = [stamp i-1, stamp i], attributed to event i.
    EXPECT_EQ(spans[1].start, 10u);
    EXPECT_EQ(spans[1].end, 25u);
    EXPECT_EQ(spans[1].duration(), 15u);
    EXPECT_EQ(spans[1].addr, 100u);
    EXPECT_EQ(spans[1].arg, 2u);
    // Equal stamps produce a zero-width span, never an underflow.
    EXPECT_EQ(spans[2].duration(), 0u);
    EXPECT_EQ(spans[3].start, 25u);
    EXPECT_EQ(spans[3].end, 40u);
    EXPECT_TRUE(obs::buildTimelineSpans({}).empty());
}

TEST(ObsTimeline, ChromeTraceShape)
{
    obs::ProfileData p;
    p.meta.emplace_back("program", "demo");
    p.meta.emplace_back("machine", "dtb");
    p.phases.emplace_back("fetch", 4);
    p.phases.emplace_back("total", 4);
    p.events.push_back(obs::Event{3, 7, 1, obs::EventKind::DtbMiss});
    p.events.push_back(obs::Event{9, 7, 2, obs::EventKind::Translate});
    p.eventsSeen = 2;
    obs::OccupancySample s;
    s.cycle = 8;
    s.dtbSetOccupancy = {1, 0};
    p.samples.push_back(s);

    std::string doc = obs::toChromeTrace(p);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    // Track metadata, the bucket overview span, both event spans and
    // the occupancy counter series are all present.
    EXPECT_NE(doc.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"iu2\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"fetch\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"dtb_miss\",\"ph\":\"X\",\"ts\":3"),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"translate\",\"ph\":\"X\",\"ts\":3"),
              std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"translator\",\"dur\":6"),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\",\"ts\":8"), std::string::npos);
    EXPECT_NE(doc.find("\"events_seen\":2"), std::string::npos);
    // No drops: the timeline is complete.
    EXPECT_NE(doc.find("\"complete\":true"), std::string::npos);
}

// ---- profile reports -------------------------------------------------------

TEST(ObsReport, JsonlShapeAndEventLines)
{
    obs::ProfileData p;
    p.meta.emplace_back("program", "demo");
    p.phases.emplace_back("fetch", 10);
    p.phases.emplace_back("total", 10);
    p.counters["dtb.hits"] = 7;
    obs::Histogram h;
    h.record(3);
    p.histograms["translate.latency_cycles"] = h.snapshot();
    p.ratios.emplace_back("dtb.hit_ratio", 0.875);
    p.events.push_back(
        obs::Event{42, 5, 1, obs::EventKind::DtbMiss});
    p.eventsSeen = 1;

    std::string doc = obs::toJsonl(p);
    // One line per section plus one per event, each valid JSON.
    size_t lines = static_cast<size_t>(
        std::count(doc.begin(), doc.end(), '\n'));
    EXPECT_EQ(lines, 7u);
    EXPECT_NE(doc.find("{\"type\":\"meta\",\"program\":\"demo\"}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"dtb.hits\":7"), std::string::npos);
    EXPECT_NE(doc.find("{\"type\":\"histograms\","
                       "\"translate.latency_cycles\":{\"count\":1,"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"type\":\"event\",\"cycle\":42,"
                       "\"kind\":\"dtb_miss\",\"addr\":5,\"arg\":1}"),
              std::string::npos);
}

TEST(ObsReport, EmbeddedJsonCarriesNoEventBodies)
{
    obs::ProfileData p;
    p.counters["x"] = 1;
    p.events.assign(3, obs::Event{});
    p.eventsSeen = 3;
    JsonWriter jw;
    obs::writeJson(jw, p);
    std::string doc = jw.str();
    EXPECT_NE(doc.find("\"events_seen\":3"), std::string::npos);
    EXPECT_EQ(doc.find("\"type\":\"event\""), std::string::npos);
}

// ---- machine integration ---------------------------------------------------

/** One sample run with the program, image and machine kept alive for
 *  inspection (the image refers to the program). */
struct SampleRun
{
    std::unique_ptr<DirProgram> program;
    std::unique_ptr<EncodedDir> image;
    std::unique_ptr<Machine> machine;
    RunResult result;
};

SampleRun
runSample(const char *name, MachineKind kind, MachineConfig cfg)
{
    SampleRun sr;
    const auto &sample = workload::sampleByName(name);
    sr.program = std::make_unique<DirProgram>(
        hlr::compileSource(sample.source));
    sr.image = encodeDir(*sr.program, EncodingScheme::Huffman);
    cfg.kind = kind;
    sr.machine = std::make_unique<Machine>(*sr.image, cfg);
    sr.result = sr.machine->run(sample.input);
    return sr;
}

TEST(ObsMachine, RegistryAgreesWithLegacyDtbCounters)
{
    SampleRun sr = runSample("collatz", MachineKind::Dtb,
                             MachineConfig{});
    const Machine *machine = sr.machine.get();
    const RunResult &r = sr.result;
    ASSERT_NE(machine->dtb(), nullptr);
    const obs::Registry &reg = machine->registry();

    // Registry view == legacy accessors == RunResult legacy stats.
    EXPECT_GT(reg.get("dtb.hits"), 0u);
    EXPECT_EQ(reg.get("dtb.hits"), machine->dtb()->hits());
    EXPECT_EQ(reg.get("dtb.misses"), machine->dtb()->misses());
    EXPECT_EQ(reg.get("dtb.hits"), r.stats.get("dtb_hits"));
    EXPECT_EQ(reg.get("dtb.misses"), r.stats.get("dtb_misses"));
    EXPECT_EQ(reg.get("dtb.inserts"), r.stats.get("dtb_inserts"));
    EXPECT_EQ(reg.get("dtb.rejects"), r.stats.get("dtb_rejects"));
    EXPECT_EQ(reg.get("machine.dir_instrs"), r.dirInstrs);
    EXPECT_EQ(reg.get("machine.micro_ops"), r.stats.get("micro_ops"));
    EXPECT_EQ(reg.get("machine.short_instrs"),
              r.stats.get("short_instrs"));

    // The snapshot in the RunResult matches the live registry.
    EXPECT_EQ(r.counters, reg.snapshot());
}

TEST(ObsMachine, RegistryAgreesWithLegacyCacheCounters)
{
    SampleRun sr = runSample("sieve", MachineKind::Cached,
                             MachineConfig{});
    const Machine *machine = sr.machine.get();
    const RunResult &r = sr.result;
    ASSERT_NE(machine->icache(), nullptr);
    EXPECT_EQ(r.counters.at("icache.hits"), machine->icache()->hits());
    EXPECT_EQ(r.counters.at("icache.hits"), r.stats.get("icache_hits"));
    EXPECT_EQ(r.counters.at("icache.misses"),
              r.stats.get("icache_misses"));
    EXPECT_EQ(r.counters.at("mem.level1_accesses"),
              r.stats.get("mem_level1_accesses"));
    // No DTB on the cached organization: no dtb.* counters registered.
    EXPECT_EQ(r.counters.count("dtb.hits"), 0u);
}

TEST(ObsMachine, TypedEventsFollowTheFigure4Flow)
{
    MachineConfig cfg;
    cfg.profileEvents = true;
    // Big enough that no event of the run is dropped.
    cfg.profileEventCapacity = size_t{1} << 18;
    RunResult r = runSample("collatz", MachineKind::Dtb, cfg).result;
    ASSERT_FALSE(r.events.empty());
    EXPECT_EQ(r.eventsDropped, 0u);
    EXPECT_EQ(r.eventsSeen, r.events.size());

    // The very first INTERP misses, traps and translates, in order.
    ASSERT_GE(r.events.size(), 3u);
    EXPECT_EQ(r.events[0].kind, obs::EventKind::DtbMiss);
    EXPECT_EQ(r.events[1].kind, obs::EventKind::Trap);

    uint64_t hits = 0, misses = 0, translates = 0, prev_cycle = 0;
    for (const obs::Event &e : r.events) {
        // Cycle stamps never run backwards.
        EXPECT_GE(e.cycle, prev_cycle);
        prev_cycle = e.cycle;
        hits += e.kind == obs::EventKind::DtbHit;
        misses += e.kind == obs::EventKind::DtbMiss;
        translates += e.kind == obs::EventKind::Translate;
    }
    // Event counts agree with the counters.
    EXPECT_EQ(hits, r.counters.at("dtb.hits"));
    EXPECT_EQ(misses, r.counters.at("dtb.misses"));
    EXPECT_EQ(translates,
              r.counters.at("machine.translated_instrs"));
}

TEST(ObsMachine, EventsOffByDefaultAndRingBounded)
{
    RunResult plain =
        runSample("fib", MachineKind::Dtb, MachineConfig{}).result;
    EXPECT_TRUE(plain.events.empty());
    EXPECT_EQ(plain.eventsSeen, 0u);

    MachineConfig cfg;
    cfg.profileEvents = true;
    cfg.profileEventCapacity = 8;
    RunResult traced = runSample("fib", MachineKind::Dtb, cfg).result;
    EXPECT_EQ(traced.events.size(), 8u);
    EXPECT_GT(traced.eventsDropped, 0u);
    EXPECT_EQ(traced.eventsSeen,
              traced.events.size() + traced.eventsDropped);
}

TEST(ObsMachine, ProfileJsonlMatchesRunResultStatistics)
{
    RunResult r =
        runSample("qsort", MachineKind::Dtb, MachineConfig{}).result;
    ProfileMeta meta;
    meta.program = "qsort";
    meta.machine = "dtb";
    meta.encoding = "huffman";
    std::string doc = profileJsonl(meta, r);

    // The acceptance contract: the JSONL counters equal the legacy
    // RunResult statistics, byte for byte.
    auto expectCounter = [&doc](const std::string &name, uint64_t v) {
        std::string needle =
            "\"" + name + "\":" + std::to_string(v);
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle;
    };
    expectCounter("dtb.hits", r.stats.get("dtb_hits"));
    expectCounter("dtb.misses", r.stats.get("dtb_misses"));
    expectCounter("dtb.inserts", r.stats.get("dtb_inserts"));
    expectCounter("machine.dir_instrs", r.dirInstrs);
    expectCounter("machine.short_instrs",
                  r.stats.get("short_instrs"));
    EXPECT_NE(doc.find("\"type\":\"phases\""), std::string::npos);
    EXPECT_NE(doc.find("\"total\":" + std::to_string(r.cycles)),
              std::string::npos);
}

TEST(ObsMachine, HistogramsFollowTheMissPath)
{
    RunResult r =
        runSample("qsort", MachineKind::Dtb, MachineConfig{}).result;
    // One latency observation per DTB miss: the histogram count must
    // agree with the counter, and every translation takes >= the trap
    // cost, so the minimum is positive.
    ASSERT_EQ(r.histograms.count("translate.latency_cycles"), 1u);
    const obs::HistogramSnapshot &lat =
        r.histograms.at("translate.latency_cycles");
    EXPECT_EQ(lat.count, r.counters.at("dtb.misses"));
    EXPECT_GT(lat.min, 0u);
    EXPECT_GE(lat.max, lat.min);
    // Occupancy is recorded once per eviction; residency additionally
    // drains the entries still resident at HALT, so every insert
    // eventually lands exactly one residency observation.
    EXPECT_EQ(r.histograms.at("dtb.residency_cycles").count,
              r.counters.at("dtb.inserts"));
    EXPECT_GE(r.histograms.at("dtb.residency_cycles").count,
              r.histograms.at("dtb.evict_set_occupancy").count);

    // No DTB, no DTB histograms.
    RunResult conv = runSample("fib", MachineKind::Conventional,
                               MachineConfig{}).result;
    EXPECT_EQ(conv.histograms.count("translate.latency_cycles"), 0u);
}

TEST(ObsMachine, OccupancySamplerIsPeriodicAndDeterministic)
{
    // Off by default: no samples, no cost.
    RunResult plain =
        runSample("qsort", MachineKind::Dtb, MachineConfig{}).result;
    EXPECT_TRUE(plain.samples.empty());

    MachineConfig cfg;
    cfg.sampleIntervalCycles = 1000;
    SampleRun sr = runSample("qsort", MachineKind::Dtb, cfg);
    const RunResult &r = sr.result;
    ASSERT_FALSE(r.samples.empty());
    uint64_t next_at = cfg.sampleIntervalCycles;
    uint64_t prev_instrs = 0;
    for (const obs::OccupancySample &s : r.samples) {
        // One sample per interval crossing: each stamp is at or past
        // the boundary the previous sample armed, never a burst.
        EXPECT_GE(s.cycle, next_at);
        next_at = (s.cycle / cfg.sampleIntervalCycles + 1) *
                  cfg.sampleIntervalCycles;
        EXPECT_GE(s.dirInstrs, prev_instrs);
        prev_instrs = s.dirInstrs;
        ASSERT_FALSE(s.dtbSetOccupancy.empty());
        EXPECT_TRUE(s.traceSetOccupancy.empty()); // no tier on Dtb
    }
    // The deltas tile the run: summed, they equal the final counters.
    uint64_t hits = 0, misses = 0;
    for (const obs::OccupancySample &s : r.samples) {
        hits += s.dtbHitsDelta;
        misses += s.dtbMissesDelta;
    }
    EXPECT_LE(hits, r.counters.at("dtb.hits"));
    EXPECT_LE(misses, r.counters.at("dtb.misses"));

    // Sampling is part of the deterministic machine state: a repeat
    // run reproduces the series exactly, and never changes the cycles.
    RunResult again = sr.machine->run(
        workload::sampleByName("qsort").input);
    EXPECT_EQ(again.samples, r.samples);
    EXPECT_EQ(again.cycles, plain.cycles);
}

TEST(ObsMachine, TieredSamplesCarryTraceOccupancy)
{
    MachineConfig cfg;
    cfg.sampleIntervalCycles = 4096;
    RunResult r = runSample("qsort", MachineKind::Tiered, cfg).result;
    ASSERT_FALSE(r.samples.empty());
    EXPECT_FALSE(r.samples.back().traceSetOccupancy.empty());
    ASSERT_EQ(r.histograms.count("tier.trace_len_dir"), 1u);
    EXPECT_GT(r.histograms.at("tier.trace_len_dir").count, 0u);
}

TEST(ObsMachine, CountersResetBetweenRuns)
{
    const auto &sample = workload::sampleByName("fib");
    DirProgram prog = hlr::compileSource(sample.source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Dtb;
    Machine machine(*image, cfg);
    RunResult first = machine.run(sample.input);
    RunResult second = machine.run(sample.input);
    // Repeated runs are bit-identical, including the counter snapshot.
    EXPECT_EQ(first.counters, second.counters);
    EXPECT_EQ(first.cycles, second.cycles);
}

// ---------------------------------------------------------------------
// Percentile extraction (obs/window.hh)
// ---------------------------------------------------------------------

TEST(ObsPercentile, ExactOnUniformFills)
{
    // Every observation equals v: min == max pins the single live
    // bucket's edges together, so every quantile is exactly v.
    for (uint64_t v : {0ull, 1ull, 7ull, 1000ull, 123456789ull}) {
        obs::Histogram h;
        for (int i = 0; i < 100; ++i)
            h.record(v);
        obs::HistogramSnapshot snap = h.snapshot();
        for (double q : {0.01, 0.50, 0.95, 0.99, 1.0})
            EXPECT_EQ(obs::histogramPercentile(snap, q),
                      static_cast<double>(v))
                << "v=" << v << " q=" << q;
    }
}

TEST(ObsPercentile, NearestRankOnMixedFill)
{
    // 1 x4, 2 x2, 3 x4: log2 buckets put the four 1s alone in bucket 1
    // and the six {2,3}s in bucket 2 (edges [2,3]). Nearest-rank with
    // even in-bucket interpolation lands p50 on 2 and p99 on 3.
    obs::Histogram h;
    for (int i = 0; i < 4; ++i)
        h.record(1);
    for (int i = 0; i < 2; ++i)
        h.record(2);
    for (int i = 0; i < 4; ++i)
        h.record(3);
    obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(obs::histogramPercentile(snap, 0.50), 2.0);
    EXPECT_EQ(obs::histogramPercentile(snap, 0.99), 3.0);
    EXPECT_EQ(obs::histogramPercentile(snap, 0.10), 1.0);
    // The extremes short-circuit to the exact min/max.
    EXPECT_EQ(obs::histogramPercentile(snap, 0.0), 1.0);
    EXPECT_EQ(obs::histogramPercentile(snap, 1.0), 3.0);
}

TEST(ObsPercentile, EmptyHistogramIsZero)
{
    obs::HistogramSnapshot empty;
    EXPECT_EQ(obs::histogramPercentile(empty, 0.5), 0.0);
}

// ---------------------------------------------------------------------
// RollingWindow (obs/window.hh)
// ---------------------------------------------------------------------

TEST(ObsWindow, AggregatesAcrossLiveBuckets)
{
    obs::RollingWindow w(/*window_us=*/16, /*buckets=*/4);
    ASSERT_EQ(w.bucketUs(), 4u);
    w.count("reqs", 0);
    w.count("reqs", 5);
    w.record("lat", 9, 100);
    obs::WindowSnapshot snap = w.snapshot();
    EXPECT_EQ(snap.counter("reqs"), 2u);
    EXPECT_EQ(snap.histograms["lat"].count, 1u);
    EXPECT_EQ(snap.counter("absent"), 0u);
    // Buckets 0..2 are live: span covers 3 bucket widths.
    EXPECT_EQ(snap.spanUs, 12u);
}

TEST(ObsWindow, RotationExpiresOldBucketsDeterministically)
{
    obs::RollingWindow w(/*window_us=*/16, /*buckets=*/4);
    w.count("reqs", 0);  // bucket 0
    w.count("reqs", 4);  // bucket 1
    EXPECT_EQ(w.snapshot().counter("reqs"), 2u);

    // Advance to bucket 4: bucket 0 slides out (4 + 4 <= ... is the
    // expiry rule: index + ringsize <= current), bucket 1 survives.
    w.count("reqs", 16);
    EXPECT_EQ(w.snapshot().counter("reqs"), 2u);

    // Advance to bucket 8: everything before this record is gone.
    w.count("reqs", 32);
    EXPECT_EQ(w.snapshot().counter("reqs"), 1u);

    // Time only advances on record: repeated snapshots are frozen.
    EXPECT_EQ(w.snapshot().counter("reqs"), 1u);
    EXPECT_EQ(w.snapshot().spanUs, w.snapshot().spanUs);
}

TEST(ObsWindow, LateRecordsLandInTheNewestBucket)
{
    obs::RollingWindow w(/*window_us=*/16, /*buckets=*/4);
    w.count("reqs", 100); // bucket 25
    // A stamp that predates the whole window must still be counted —
    // it routes to the newest live bucket instead of resurrecting an
    // expired slot (or crashing).
    w.count("reqs", 0);
    EXPECT_EQ(w.snapshot().counter("reqs"), 2u);
}

TEST(ObsWindow, MergeIsOrderInvariant)
{
    // The same observations distributed across buckets in different
    // arrival orders must produce identical snapshots — bucket merges
    // are per-name additions, which commute.
    const uint64_t stamps[] = {1, 5, 9, 13};
    obs::RollingWindow a(/*window_us=*/16, /*buckets=*/4);
    obs::RollingWindow b(/*window_us=*/16, /*buckets=*/4);
    for (uint64_t t : stamps) {
        a.count("reqs", t);
        a.record("lat", t, t * 10);
    }
    for (size_t i = 0; i < 4; ++i) {
        // b sees the same data, newest bucket touched first within
        // each time step (records never go backwards in time across
        // steps, mirroring out-of-order threads under one lock).
        uint64_t t = stamps[i];
        a.count("alt", t);
        b.count("alt", t);
        b.count("reqs", t);
        b.record("lat", t, t * 10);
    }
    obs::WindowSnapshot sa = a.snapshot();
    obs::WindowSnapshot sb = b.snapshot();
    EXPECT_EQ(sa.counters, sb.counters);
    EXPECT_EQ(sa.spanUs, sb.spanUs);
    ASSERT_EQ(sa.histograms.size(), sb.histograms.size());
    EXPECT_EQ(sa.histograms["lat"], sb.histograms["lat"]);
}

TEST(ObsWindow, ResetForgetsEverything)
{
    obs::RollingWindow w(/*window_us=*/16, /*buckets=*/4);
    w.count("reqs", 3);
    w.record("lat", 3, 42);
    w.reset();
    obs::WindowSnapshot snap = w.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.histograms.empty());
    EXPECT_EQ(snap.spanUs, 0u);
}

} // anonymous namespace
} // namespace uhm
