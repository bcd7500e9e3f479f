/**
 * @file
 * The execution engine's identity contract: the machine's run loops,
 * with events off and with events on, against the stepped reference
 * engine (stepped_reference.hh), which applies every charge one by one
 * and stamps every event with the running total. Batching and stamping
 * are host-side implementation details, so every simulated observable
 * must be byte-identical between the two, and with events on so must
 * the event stream — across machine kinds, encoders, the interval
 * sampler, batch sweeps and the multi-tenant scheduler — and the
 * per-site inline caches must be invalidated by the existing DTB,
 * first-level buffer and icache eviction and flush paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "hlr/compiler.hh"
#include "sched/scheduler.hh"
#include "stepped_reference.hh"
#include "uhm/machine.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm
{
namespace
{

const std::vector<MachineKind> kAllKinds = {
    MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
    MachineKind::Dtb2,         MachineKind::Tiered,
};

/** Every simulated observable of two runs must agree exactly. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dirInstrs, b.dirInstrs);
    EXPECT_EQ(a.breakdown.fetch, b.breakdown.fetch);
    EXPECT_EQ(a.breakdown.decode, b.breakdown.decode);
    EXPECT_EQ(a.breakdown.stage, b.breakdown.stage);
    EXPECT_EQ(a.breakdown.dispatch, b.breakdown.dispatch);
    EXPECT_EQ(a.breakdown.semantic, b.breakdown.semantic);
    EXPECT_EQ(a.breakdown.translate, b.breakdown.translate);
    EXPECT_EQ(a.breakdown.translate2, b.breakdown.translate2);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.histograms, b.histograms);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.opcodeCounts, b.opcodeCounts);
    EXPECT_EQ(a.dtbHitRatio, b.dtbHitRatio);
    EXPECT_EQ(a.dtbL1HitRatio, b.dtbL1HitRatio);
    EXPECT_EQ(a.cacheHitRatio, b.cacheHitRatio);
    EXPECT_EQ(a.traceHitRatio, b.traceHitRatio);
    EXPECT_EQ(a.traceCoverage, b.traceCoverage);
    EXPECT_EQ(a.traceMeanIterLen, b.traceMeanIterLen);
    EXPECT_EQ(a.addressTrace, b.addressTrace);
    EXPECT_EQ(a.eventsSeen, b.eventsSeen);
    EXPECT_EQ(a.eventsDropped, b.eventsDropped);
    EXPECT_TRUE(a.events == b.events) << "event streams differ";
}

/**
 * Run @p prog on the machine and on the stepped reference, events off
 * and then on; demand identity, event streams included.
 */
void
compareModes(const DirProgram &prog, EncodingScheme scheme,
             const MachineConfig &cfg, const std::vector<int64_t> &input,
             const std::string &what)
{
    auto image = encodeDir(prog, scheme);
    for (bool events : {false, true}) {
        MachineConfig c = cfg;
        c.profileEvents = events;
        RunResult ref = runStepped(*image, c, input);
        RunResult run = Machine(*image, c).run(input);
        if (events) {
            EXPECT_GT(run.eventsSeen, 0u) << what;
        }
        expectIdentical(ref, run, what + (events ? "/events" : ""));
    }
}

TEST(DispatchIdentity, SamplesAcrossKindsAndEncoders)
{
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = hlr::compileSource(sample.source);
        for (MachineKind kind : kAllKinds) {
            for (EncodingScheme scheme : allEncodingSchemes()) {
                for (bool capture : {false, true}) {
                    MachineConfig cfg;
                    cfg.kind = kind;
                    cfg.captureAddressTrace = capture;
                    compareModes(prog, scheme, cfg, sample.input,
                                 std::string(sample.name) + "/" +
                                     machineKindName(kind) + "/" +
                                     encodingName(scheme) +
                                     (capture ? "/capture" : ""));
                }
            }
        }
    }
}

TEST(DispatchIdentity, BudgetAbortLeavesIdenticalState)
{
    // Every loop publishes its batched charges (VM_BAIL) before it
    // fatals, so a run that exhausts its DIR budget leaves the same
    // counters and events as the stepped reference. The nested loop
    // puts the exhaustion point in the tier-1 loop, on a miss or inside
    // a tier-2 trace (runTrace's per-address budget path), depending on
    // the budget.
    DirProgram prog = hlr::compileSource(
        "program t; var i, a; begin"
        " while 1 do i := 0;"
        "  while i < 40 do a := a + i; i := i + 1; od;"
        " od; end.");
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    for (MachineKind kind : kAllKinds) {
        for (uint64_t budget : {997u, 10007u, 123457u}) {
            for (bool events : {false, true}) {
                SCOPED_TRACE(std::string(machineKindName(kind)) + "/" +
                             std::to_string(budget) +
                             (events ? "/events" : ""));
                MachineConfig cfg;
                cfg.kind = kind;
                cfg.maxDirInstrs = budget;
                cfg.profileEvents = events;
                Machine st(*image, cfg);
                Machine fast(*image, cfg);
                EXPECT_THROW(SteppedReference(st).run(), FatalError);
                EXPECT_THROW(fast.run(), FatalError);
                EXPECT_EQ(st.dirInstrsSoFar(), fast.dirInstrsSoFar());
                EXPECT_EQ(st.cyclesSoFar(), fast.cyclesSoFar());
                EXPECT_EQ(st.registry().snapshot(),
                          fast.registry().snapshot());
                EXPECT_TRUE(SteppedReference::events(st) ==
                            SteppedReference::events(fast));
            }
        }
    }
}

TEST(DispatchIdentity, SyntheticSemworkAcrossKinds)
{
    // Semantics-heavy spins exercise the fused SEMWORK closed form.
    workload::SyntheticConfig scfg;
    scfg.numLoops = 3;
    scfg.bodyInstrs = 20;
    scfg.iterations = 12;
    scfg.semworkDensity = 0.3;
    scfg.semworkWeight = 37;
    scfg.seed = 11;
    DirProgram prog = workload::generateSynthetic(scfg);
    for (MachineKind kind : kAllKinds) {
        MachineConfig cfg;
        cfg.kind = kind;
        compareModes(prog, EncodingScheme::Huffman, cfg, {},
                     std::string("semwork/") + machineKindName(kind));
    }
}

TEST(DispatchIdentity, IntervalSamplerSeries)
{
    // The sampler drains pending work at every sample boundary; the
    // batched attribution must produce the same series, sample by
    // sample.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 500; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.");
    for (MachineKind kind : kAllKinds) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.sampleIntervalCycles = 997; // prime: misaligned boundaries
        compareModes(prog, EncodingScheme::Packed, cfg, {},
                     std::string("sampler/") + machineKindName(kind));
    }
}

TEST(DispatchIdentity, SweepJsonlByteIdentical)
{
    auto makePoints = [](bool events) {
        std::vector<bench::SweepPoint> points;
        for (MachineKind kind : kAllKinds) {
            bench::SweepPoint pt;
            pt.label = machineKindName(kind);
            pt.program = hlr::compileSource(
                "program t; var i, s; begin i := 200; s := 1; "
                "while i > 0 do s := s + 2; i := i - 1; od; "
                "write s; end.");
            pt.scheme = EncodingScheme::Huffman;
            pt.config.kind = kind;
            pt.config.profileEvents = events;
            points.push_back(std::move(pt));
        }
        return points;
    };
    // Each point against the reference, and the report with events on
    // byte-identical to the one with them off.
    bench::SweepRunner runner(2);
    std::string jsonl[2];
    for (bool events : {false, true}) {
        std::vector<bench::SweepPoint> points = makePoints(events);
        bench::SweepReport report = bench::runSweep(runner, points);
        ASSERT_EQ(report.results.size(), points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            auto image = encodeDir(points[i].program, points[i].scheme);
            expectIdentical(runStepped(*image, points[i].config),
                            report.results[i],
                            "sweep/" + points[i].label +
                                (events ? "/events" : ""));
        }
        jsonl[events] = report.jsonl;
    }
    EXPECT_EQ(jsonl[true], jsonl[false]);
}

/** Deterministic serialization of a scheduler run, for byte-compares. */
std::string
serializeSched(const sched::SchedResult &r)
{
    std::ostringstream os;
    for (const auto &kv : r.counters)
        os << kv.first << "=" << kv.second << "\n";
    for (const auto &kv : r.histograms)
        os << kv.first << " n=" << kv.second.count
           << " min=" << kv.second.min << " max=" << kv.second.max
           << "\n";
    for (const sched::TenantResult &t : r.tenants) {
        os << t.name << ":";
        for (int64_t v : t.run.output)
            os << " " << v;
        os << "\n";
    }
    return os.str();
}

/** What replaySchedule() saw of one scheduled run. */
struct Replay
{
    std::vector<RunResult> tenants;
    uint64_t dtbHits = 0;
    uint64_t dtbMisses = 0;
    uint64_t flushes = 0;
    uint64_t flushedEntries = 0;
};

/**
 * Scheduler::run for the RoundRobin and Priority policies, with each
 * slice run by the machine (@p stepped false) or by the stepped
 * reference: the same slice order, ASID switches, flushes and cycle
 * bases over one shared DTB.
 */
Replay
replaySchedule(const sched::SchedConfig &sc,
               const std::vector<sched::TenantSpec> &specs, bool stepped)
{
    const size_t n = specs.size();
    Dtb dtb(sc.machine.dtb);
    std::vector<std::unique_ptr<EncodedDir>> images;
    std::vector<std::unique_ptr<Machine>> machines;
    for (const sched::TenantSpec &spec : specs) {
        images.push_back(encodeDir(spec.program, sc.scheme));
        machines.push_back(
            std::make_unique<Machine>(*images.back(), sc.machine, &dtb));
    }
    dtb.invalidateAll();
    dtb.resetStats();
    dtb.setAsid(0);
    for (size_t t = 0; t < n; ++t)
        machines[t]->beginRun(specs[t].input);

    Replay out;
    out.tenants.resize(n);
    std::vector<bool> finished(n, false);
    std::vector<uint32_t> quanta_left(n, 0);
    const bool priority = sc.policy == sched::Policy::Priority;
    uint64_t global = 0;
    size_t current = SIZE_MAX;
    size_t finished_count = 0;
    while (finished_count < n) {
        size_t next = SIZE_MAX;
        if (priority && current < n && !finished[current] &&
            quanta_left[current] > 0) {
            --quanta_left[current];
            next = current;
        } else {
            size_t start = current >= n ? 0 : (current + 1) % n;
            for (size_t k = 0; k < n && next == SIZE_MAX; ++k) {
                size_t c = (start + k) % n;
                if (finished[c])
                    continue;
                if (priority)
                    quanta_left[c] = specs[c].priority - 1;
                next = c;
            }
        }
        if (next != current) {
            if (current != SIZE_MAX &&
                sc.switchMode == sched::SwitchMode::FlushOnSwitch)
                machines[current]->flushDtb();
            dtb.setAsid(static_cast<uint32_t>(next));
        }
        current = next;
        Machine &m = *machines[current];
        m.setCycleBase(global - m.cyclesSoFar());
        global += stepped ? SteppedReference(m).runSlice(sc.quantumCycles)
                          : m.runSlice(sc.quantumCycles);
        if (m.finished()) {
            finished[current] = true;
            ++finished_count;
            out.tenants[current] = m.finishRun();
        }
    }
    out.dtbHits = dtb.hits();
    out.dtbMisses = dtb.misses();
    out.flushes = dtb.flushes();
    out.flushedEntries = dtb.flushedEntries();
    return out;
}

TEST(DispatchIdentity, MultiTenantSchedulerByteIdentical)
{
    // FlushOnSwitch flushes the shared DTB (and trace anchors) at
    // every context switch, mid-run from the tenants' point of view —
    // the inline caches must die with the entries they point at. The
    // scheduler's own report must not move with events on, and each
    // tenant's run must match the stepped reference under the same
    // schedule (which the replay ties to the scheduler's).
    const char *kLoop =
        "program t; var i, s; begin i := 400; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.";
    for (MachineKind kind : {MachineKind::Dtb, MachineKind::Tiered}) {
        for (sched::Policy policy :
             {sched::Policy::RoundRobin, sched::Policy::Priority}) {
            for (sched::SwitchMode mode :
                 {sched::SwitchMode::FlushOnSwitch,
                  sched::SwitchMode::TagAndShare}) {
                for (size_t tenants : {1u, 8u, 64u}) {
                    sched::SchedConfig sc;
                    sc.policy = policy;
                    sc.switchMode = mode;
                    sc.quantumCycles = 1000;
                    sc.machine.kind = kind;
                    std::vector<sched::TenantSpec> specs;
                    for (size_t i = 0; i < tenants; ++i) {
                        sched::TenantSpec spec;
                        spec.name = "t" + std::to_string(i);
                        spec.program = hlr::compileSource(kLoop);
                        spec.priority =
                            1 + static_cast<uint32_t>(i % 3);
                        specs.push_back(std::move(spec));
                    }
                    std::string what = std::string(machineKindName(kind)) +
                        "/" + policyName(policy) + "/" +
                        switchModeName(mode) + "/" +
                        std::to_string(tenants);
                    SCOPED_TRACE(what);
                    std::string report[2];
                    for (bool events : {false, true}) {
                        sc.machine.profileEvents = events;
                        sched::SchedResult sr = runScheduled(sc, specs);
                        report[events] = serializeSched(sr);
                        Replay run = replaySchedule(sc, specs, false);
                        Replay ref = replaySchedule(sc, specs, true);
                        EXPECT_EQ(run.dtbHits, ref.dtbHits);
                        EXPECT_EQ(run.dtbMisses, ref.dtbMisses);
                        EXPECT_EQ(run.flushes, ref.flushes);
                        EXPECT_EQ(run.flushedEntries, ref.flushedEntries);
                        EXPECT_EQ(run.flushes, sr.flushes);
                        for (size_t t = 0; t < tenants; ++t) {
                            std::string who = what + "/tenant " +
                                std::to_string(t) +
                                (events ? "/events" : "");
                            expectIdentical(sr.tenants[t].run,
                                            run.tenants[t], who);
                            expectIdentical(ref.tenants[t],
                                            run.tenants[t], who);
                        }
                    }
                    EXPECT_EQ(report[true], report[false]);
                }
            }
        }
    }
}

TEST(InlineCache, EvictionChurnStaysIdentical)
{
    // A DTB small enough that the working set churns through every
    // set: each eviction must invalidate any inline cache pointing at
    // the victim slot, or the fast loop dispatches stale code.
    workload::SyntheticConfig scfg;
    scfg.numLoops = 6;
    scfg.bodyInstrs = 40;
    scfg.iterations = 10;
    scfg.outerRepeats = 3; // revisit evicted code: stale ICs would hit
    scfg.semworkDensity = 0.1;
    scfg.semworkWeight = 5;
    scfg.seed = 23;
    DirProgram prog = workload::generateSynthetic(scfg);
    for (MachineKind kind : {MachineKind::Dtb, MachineKind::Tiered}) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.dtb.capacityBytes = 256;
        cfg.dtb.assoc = 2;
        compareModes(prog, EncodingScheme::Huffman, cfg, {},
                     std::string("tiny-dtb/") + machineKindName(kind));
    }
}

TEST(InlineCache, TinyIcacheAndFirstLevelBufferChurn)
{
    // Buffers small enough that every few fetches evict: icache misses
    // interleave with fast-loop hits (Cached), and first-level
    // promotions, evictions and main-DTB misses interleave with
    // first-level hits (Dtb2). A stale inline cache or a missed charge
    // shows up as a counter or histogram difference.
    workload::SyntheticConfig scfg;
    scfg.numLoops = 6;
    scfg.bodyInstrs = 40;
    scfg.iterations = 10;
    scfg.outerRepeats = 3;
    scfg.semworkDensity = 0.1;
    scfg.semworkWeight = 5;
    scfg.seed = 29;
    DirProgram prog = workload::generateSynthetic(scfg);
    // Every policy of both buffers: FIFO ignores the hint path's
    // touches, and Random draws its victim only when a set is full.
    for (ReplPolicy policy :
         {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::Random}) {
        for (EncodingScheme scheme :
             {EncodingScheme::Huffman, EncodingScheme::Expanded}) {
            std::string tag = std::string(replPolicyName(policy)) + "/" +
                encodingName(scheme);
            MachineConfig cached;
            cached.kind = MachineKind::Cached;
            cached.icache.capacityBytes = 64;
            cached.icache.assoc = 2;
            cached.icache.policy = policy;
            compareModes(prog, scheme, cached, {}, "tiny-icache/" + tag);
            // Non-power-of-two sets and lines: the divide path.
            cached.icache.capacityBytes = 72;
            cached.icache.lineBytes = 12;
            compareModes(prog, scheme, cached, {},
                         "tiny-icache-3-sets/" + tag);

            MachineConfig dtb2;
            dtb2.kind = MachineKind::Dtb2;
            dtb2.dtbL1.capacityBytes = 64;
            dtb2.dtbL1.assoc = 2;
            dtb2.dtbL1.policy = policy;
            compareModes(prog, scheme, dtb2, {}, "tiny-l1/" + tag);
            dtb2.dtb.capacityBytes = 256;
            dtb2.dtb.assoc = 2;
            compareModes(prog, scheme, dtb2, {}, "tiny-l1-tiny-dtb/" + tag);
        }
    }
}

TEST(InlineCache, ConventionalSlicesAndRerunsStayIdentical)
{
    // Small slice budgets end the fast loop between an instruction and
    // the successor it links to, and a rerun on the same machine
    // starts from beginRun's fresh lowerings: neither may change a
    // charge. Cached runs a tiny icache, so hinted probes miss, refill
    // and go stale across the slice boundaries too.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 300; s := 0; "
        "while i > 0 do s := s + 3; i := i - 1; od; write s; end.");
    for (EncodingScheme scheme :
         {EncodingScheme::Huffman, EncodingScheme::Expanded}) {
        auto img = encodeDir(prog, scheme);
        for (MachineKind kind :
             {MachineKind::Conventional, MachineKind::Cached}) {
            for (bool events : {false, true}) {
                MachineConfig cfg;
                cfg.kind = kind;
                cfg.icache.capacityBytes = 64;
                cfg.icache.assoc = 2;
                cfg.profileEvents = events;
                std::string what = std::string(machineKindName(kind)) +
                    "/" + encodingName(scheme) + (events ? "/events" : "");
                RunResult whole = runStepped(*img, cfg);
                Machine fast(*img, cfg);
                for (uint64_t slice : {1u, 7u, 50u, 333u}) {
                    fast.beginRun({});
                    while (!fast.finished())
                        fast.runSlice(slice);
                    expectIdentical(whole, fast.finishRun(),
                                    what + "/slice " +
                                        std::to_string(slice));
                }
                expectIdentical(whole, fast.run({}), what + "/rerun");
            }
        }
    }
}

TEST(InlineCache, FlushDtbBetweenSlicesStaysIdentical)
{
    // flushDtb() between slices empties the DTB and the first-level
    // buffer under a run in progress: every inline cache naming a
    // flushed slot must miss, and the run must match the stepped
    // reference under the same flush schedule.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 300; s := 0; "
        "while i > 0 do s := s + 3; i := i - 1; od; write s; end.");
    auto img = encodeDir(prog, EncodingScheme::Huffman);
    auto sliced = [&](MachineKind kind, bool events, bool stepped) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.profileEvents = events;
        Machine m(*img, cfg);
        m.beginRun({});
        while (!m.finished()) {
            if (stepped)
                SteppedReference(m).runSlice(700);
            else
                m.runSlice(700);
            m.flushDtb();
        }
        return m.finishRun();
    };
    for (MachineKind kind :
         {MachineKind::Dtb, MachineKind::Dtb2, MachineKind::Tiered}) {
        for (bool events : {false, true}) {
            expectIdentical(sliced(kind, events, true),
                            sliced(kind, events, false),
                            std::string("flush-slices/") +
                                machineKindName(kind) +
                                (events ? "/events" : ""));
        }
    }
}

TEST(InlineCache, FlushDtbInvalidatesBetweenRuns)
{
    // flushDtb() bumps the generation; a rerun on the same machine
    // must behave exactly like a rerun without the flush (beginRun
    // already cold-starts the DTB) — in particular no inline cache
    // may survive into the flushed generation.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 300; s := 0; "
        "while i > 0 do s := s + 3; i := i - 1; od; write s; end.");
    auto img = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Dtb;

    Machine flushed(*img, cfg);
    RunResult first = flushed.run({});
    flushed.flushDtb();
    RunResult second = flushed.run({});
    expectIdentical(first, second, "pre-flush vs post-flush rerun");

    Machine fresh(*img, cfg);
    expectIdentical(fresh.run({}), second, "fresh vs post-flush");
}

} // anonymous namespace
} // namespace uhm
