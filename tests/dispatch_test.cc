/**
 * @file
 * The execution engine's identity contract: a run with events on takes
 * its organization's per-instruction step for every DIR instruction
 * (the single cold-path accounting), a run with events off takes the
 * fast loops over lowered run images. Batching is a host-side
 * implementation detail, so every simulated observable except the
 * events themselves must be byte-identical between the two — across
 * machine kinds, encoders, the interval sampler, batch sweeps and the
 * multi-tenant scheduler — and the per-site inline caches must be
 * invalidated by the existing DTB, first-level buffer and icache
 * eviction and flush paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "hlr/compiler.hh"
#include "sched/scheduler.hh"
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
    EXPECT_EQ(a.stats.toString(), b.stats.toString());
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
}

/** @p cfg with typed events on: every instruction takes the step. */
MachineConfig
stepped(MachineConfig cfg)
{
    cfg.profileEvents = true;
    return cfg;
}

/** Run @p prog stepped and on the fast loops; demand identity. */
void
compareModes(const DirProgram &prog, EncodingScheme scheme,
             const MachineConfig &cfg, const std::vector<int64_t> &input,
             const std::string &what)
{
    RunResult st = runProgram(prog, scheme, stepped(cfg), input);
    RunResult fast = runProgram(prog, scheme, cfg, input);
    EXPECT_GT(st.eventsSeen, 0u) << what;
    expectIdentical(st, fast, what);
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
    // counters stepped and fast. The nested loop puts the exhaustion
    // point in the tier-1 loop, in a step or inside a tier-2 trace
    // (runTrace's per-address budget path), depending on the budget.
    DirProgram prog = hlr::compileSource(
        "program t; var i, a; begin"
        " while 1 do i := 0;"
        "  while i < 40 do a := a + i; i := i + 1; od;"
        " od; end.");
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    for (MachineKind kind : kAllKinds) {
        for (uint64_t budget : {997u, 10007u, 123457u}) {
            SCOPED_TRACE(std::string(machineKindName(kind)) + "/" +
                         std::to_string(budget));
            MachineConfig cfg;
            cfg.kind = kind;
            cfg.maxDirInstrs = budget;
            Machine st(*image, stepped(cfg));
            Machine fast(*image, cfg);
            EXPECT_THROW(st.run(), FatalError);
            EXPECT_THROW(fast.run(), FatalError);
            EXPECT_EQ(st.dirInstrsSoFar(), fast.dirInstrsSoFar());
            EXPECT_EQ(st.cyclesSoFar(), fast.cyclesSoFar());
            EXPECT_EQ(st.registry().snapshot(), fast.registry().snapshot());
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
    bench::SweepRunner runner(2);
    std::string st = bench::runSweep(runner, makePoints(true)).jsonl;
    std::string fast = bench::runSweep(runner, makePoints(false)).jsonl;
    EXPECT_EQ(st, fast);
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

TEST(DispatchIdentity, MultiTenantSchedulerByteIdentical)
{
    // FlushOnSwitch flushes the shared DTB (and trace anchors) at
    // every context switch, mid-run from the tenants' point of view —
    // the inline caches must die with the entries they point at.
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
                    std::string fast =
                        serializeSched(runScheduled(sc, specs));
                    sc.machine = stepped(sc.machine);
                    std::string st =
                        serializeSched(runScheduled(sc, specs));
                    SCOPED_TRACE(std::string(machineKindName(kind)) +
                                 "/" + policyName(policy) + "/" +
                                 switchModeName(mode) + "/" +
                                 std::to_string(tenants));
                    EXPECT_EQ(st, fast);
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
    for (EncodingScheme scheme :
         {EncodingScheme::Huffman, EncodingScheme::Expanded}) {
        MachineConfig cached;
        cached.kind = MachineKind::Cached;
        cached.icache.capacityBytes = 64;
        cached.icache.assoc = 2;
        compareModes(prog, scheme, cached, {},
                     std::string("tiny-icache/") + encodingName(scheme));

        MachineConfig dtb2;
        dtb2.kind = MachineKind::Dtb2;
        dtb2.dtbL1.capacityBytes = 64;
        dtb2.dtbL1.assoc = 2;
        compareModes(prog, scheme, dtb2, {},
                     std::string("tiny-l1/") + encodingName(scheme));
        dtb2.dtb.capacityBytes = 256;
        dtb2.dtb.assoc = 2;
        compareModes(prog, scheme, dtb2, {},
                     std::string("tiny-l1-tiny-dtb/") +
                         encodingName(scheme));
    }
}

TEST(InlineCache, FlushDtbBetweenSlicesStaysIdentical)
{
    // flushDtb() between slices empties the DTB and the first-level
    // buffer under a run in progress: every inline cache naming a
    // flushed slot must miss, and the run must match the stepped run
    // under the same flush schedule.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 300; s := 0; "
        "while i > 0 do s := s + 3; i := i - 1; od; write s; end.");
    auto img = encodeDir(prog, EncodingScheme::Huffman);
    auto sliced = [&](MachineKind kind, bool events) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.profileEvents = events;
        Machine m(*img, cfg);
        m.beginRun({});
        while (!m.finished()) {
            m.runSlice(700);
            m.flushDtb();
        }
        return m.finishRun();
    };
    for (MachineKind kind :
         {MachineKind::Dtb, MachineKind::Dtb2, MachineKind::Tiered}) {
        expectIdentical(sliced(kind, true), sliced(kind, false),
                        std::string("flush-slices/") +
                            machineKindName(kind));
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
