/**
 * @file
 * The adaptive tier (src/tier/): trace-cache unit behavior, the
 * DTB/trace-cache anchor coupling (invalidation is correct by
 * construction), trace formation and fusion through the machine, the
 * steady-state win over the plain DTB organization, and the Dtb2
 * hot-promotion path the tier's profiler generalizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dtb.hh"
#include "core/translator.hh"
#include "dir/isa.hh"
#include "hlr/compiler.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "tier/engine.hh"
#include "tier/trace_cache.hh"
#include "uhm/machine.hh"
#include "workload/samples.hh"

namespace uhm
{
namespace
{

using tier::Trace;
using tier::TraceCache;
using tier::TraceCacheConfig;
using tier::TierConfig;
using tier::TierEngine;

MachineConfig
configFor(MachineKind kind)
{
    MachineConfig cfg;
    cfg.kind = kind;
    return cfg;
}

/** A loop hot enough that the default threshold promotes it. */
const char *kHotLoop =
    "program t; var i, s; begin i := 500; s := 0; "
    "while i > 0 do s := s + i; i := i - 1; od; write s; end.";

/** A trace occupying ceil(shorts / unit) allocation units. */
Trace
traceOf(uint64_t head, uint64_t shorts)
{
    Trace t;
    t.head = head;
    t.loops = true;
    t.dirCount = 1;
    t.shortCount = shorts;
    return t;
}

/** A tiny fully-associative cache: @p units entries of 4 shorts. */
TraceCacheConfig
tinyCache(uint64_t units)
{
    TraceCacheConfig cfg;
    cfg.unitShortInstrs = 4; // 8-byte unit
    cfg.capacityBytes = units * 8;
    cfg.assoc = 0;
    return cfg;
}

// ---- TraceCache unit behavior ----------------------------------------------

TEST(TraceCache, InsertLookupRoundTrip)
{
    TraceCache cache(tinyCache(4));
    EXPECT_EQ(cache.lookup(100), nullptr); // miss
    auto out = cache.insert(traceOf(100, 4));
    EXPECT_TRUE(out.retained);
    EXPECT_EQ(out.unitsNeeded, 1u);
    const Trace *t = cache.lookup(100);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->head, 100u);
    EXPECT_EQ(cache.unitsUsed(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5); // one miss, one hit
}

TEST(TraceCache, BadGeometryIsFatal)
{
    // Geometry is user configuration: a user error, not a panic.
    TraceCacheConfig cfg = tinyCache(4);
    cfg.capacityBytes = 1; // smaller than one unit
    EXPECT_THROW(TraceCache{cfg}, FatalError);
}

TEST(TraceCache, SameHeadReinsertReplaces)
{
    TraceCache cache(tinyCache(4));
    ASSERT_TRUE(cache.insert(traceOf(100, 4)).retained);
    auto out = cache.insert(traceOf(100, 8)); // grows to 2 units
    EXPECT_TRUE(out.retained);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimHead, 100u);
    EXPECT_EQ(cache.unitsUsed(), 2u);
    ASSERT_NE(cache.find(100), nullptr);
    EXPECT_EQ(cache.find(100)->shortCount, 8u);
}

TEST(TraceCache, LruEvictsTheLeastRecentlyTouched)
{
    TraceCache cache(tinyCache(2)); // 2 entries, one set
    ASSERT_TRUE(cache.insert(traceOf(1, 4)).retained);
    ASSERT_TRUE(cache.insert(traceOf(2, 4)).retained);
    ASSERT_NE(cache.lookup(1), nullptr); // 1 is now most recent
    auto out = cache.insert(traceOf(3, 4));
    EXPECT_TRUE(out.retained);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimHead, 2u);
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
}

TEST(TraceCache, OversizedInsertIsRejectedAndVictimSurvives)
{
    TraceCache cache(tinyCache(2));
    ASSERT_TRUE(cache.insert(traceOf(1, 8)).retained); // both units
    // 16 shorts need 4 units; even evicting a victim frees only 2.
    auto out = cache.insert(traceOf(2, 16));
    EXPECT_FALSE(out.retained);
    EXPECT_FALSE(out.evicted);
    EXPECT_NE(cache.find(1), nullptr) << "victim must survive a reject";
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_EQ(cache.unitsUsed(), 2u);
}

TEST(TraceCache, InvalidateReleasesUnits)
{
    TraceCache cache(tinyCache(4));
    ASSERT_TRUE(cache.insert(traceOf(7, 8)).retained);
    EXPECT_EQ(cache.unitsUsed(), 2u);
    EXPECT_FALSE(cache.invalidate(9)); // not resident
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_EQ(cache.find(7), nullptr);
    EXPECT_EQ(cache.unitsUsed(), 0u);
    EXPECT_FALSE(cache.invalidate(7)); // already gone
}

// ---- the DTB anchor flag ---------------------------------------------------

TEST(DtbAnchors, MarkRequiresResidency)
{
    Dtb dtb(DtbConfig{});
    EXPECT_FALSE(dtb.markTraceAnchor(64));
    dtb.insert(64, {ShortInstr{}, ShortInstr{}});
    EXPECT_TRUE(dtb.markTraceAnchor(64));
    Dtb::LookupResult lr = dtb.lookup(64);
    ASSERT_TRUE(lr.hit);
    ASSERT_NE(lr.meta, nullptr);
    EXPECT_TRUE(lr.meta->anchorsTrace);
    dtb.clearTraceAnchor(64);
    EXPECT_FALSE(dtb.lookup(64).meta->anchorsTrace);
}

// ---- invalidation is correct by construction -------------------------------

/**
 * Record and install a one-instruction guarded trace at a conditional
 * branch, then hammer the tiny DTB with other translations until the
 * anchoring entry is evicted: installTranslation must report the
 * coupled invalidation, and the trace must be gone from the cache.
 */
TEST(TierEngine, EvictingTheAnchorInvalidatesTheTrace)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    // A branch instruction: Stack successor, so the recorded step
    // compiles to a guard rather than a static-successor assertion.
    size_t branch_idx = prog.instrs.size();
    for (size_t i = 0; i < prog.instrs.size(); ++i) {
        if (prog.instrs[i].op == Op::JZ ||
            prog.instrs[i].op == Op::JNZ) {
            branch_idx = i;
            break;
        }
    }
    ASSERT_LT(branch_idx, prog.instrs.size());
    uint64_t head = image->bitAddrOf(branch_idx);

    DtbConfig small;
    small.capacityBytes = 96; // a handful of entries
    small.assoc = 0;
    Dtb dtb(small);
    TierEngine engine(*image, dtb, TierConfig{}, TraceCacheConfig{});
    DynamicTranslator translator(*image);

    engine.installTranslation(head, translator.translate(head).code);
    engine.beginRecording(head);
    TierEngine::RecordOutcome rec = engine.recordStep(head); // loops
    ASSERT_EQ(rec.status, TierEngine::RecordStatus::Closed);
    ASSERT_TRUE(rec.compile.installed);
    ASSERT_NE(engine.cache().find(head), nullptr);
    ASSERT_TRUE(dtb.lookup(head).meta->anchorsTrace);

    bool saw_coupled_invalidation = false;
    for (size_t i = 0; i < image->numInstrs(); ++i) {
        uint64_t addr = image->bitAddrOf(i);
        if (addr == head)
            continue;
        TierEngine::InstallResult r = engine.installTranslation(
            addr, translator.translate(addr).code);
        if (r.dtb.evicted && r.dtb.victimTag == head) {
            EXPECT_TRUE(r.invalidatedTrace);
            saw_coupled_invalidation = true;
            break;
        }
    }
    ASSERT_TRUE(saw_coupled_invalidation)
        << "tiny DTB never evicted the anchor";
    EXPECT_EQ(engine.cache().find(head), nullptr)
        << "stale trace left executable after its anchor was evicted";
}

// ---- trace formation through the machine -----------------------------------

TEST(Tiered, HotLoopFormsTracesAndMatchesDtbOutput)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    Machine dtb(*image, configFor(MachineKind::Dtb));
    Machine tiered(*image, configFor(MachineKind::Tiered));
    RunResult r2 = dtb.run();
    RunResult r4 = tiered.run();

    EXPECT_EQ(r4.output, r2.output);
    EXPECT_EQ(r4.dirInstrs, r2.dirInstrs);
    EXPECT_GT(r4.counters.at("tier.traces_installed"), 0u);
    EXPECT_GT(r4.traceCoverage, 0.5);
    // The acceptance bar: at equal DTB configuration the steady-state
    // dispatch work (and with it the total) must be strictly lower.
    EXPECT_LT(r4.breakdown.dispatch, r2.breakdown.dispatch);
    EXPECT_LT(r4.cycles, r2.cycles);
}

TEST(Tiered, TraceBodiesFuseLikeRaiseSemanticLevel)
{
    // The loop body contains i := i - 1, a PUSHL/PUSHC/SUB/STOREL
    // quartet the tier-2 translator must fuse exactly as
    // raiseSemanticLevel would.
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    Machine tiered(*image, configFor(MachineKind::Tiered));
    RunResult r = tiered.run();
    EXPECT_GT(r.counters.at("tier.fused_groups"), 0u);
    EXPECT_GT(r.counters.at("tier.compiled_short_instrs"), 0u);
    EXPECT_GT(r.breakdown.translate2, 0u);
}

TEST(Tiered, SurvivesDtbPressureWithCorrectOutput)
{
    const auto &sample = workload::sampleByName("qsort");
    DirProgram prog = hlr::compileSource(sample.source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    MachineConfig ref_cfg = configFor(MachineKind::Dtb);
    MachineConfig cfg = configFor(MachineKind::Tiered);
    ref_cfg.dtb.capacityBytes = cfg.dtb.capacityBytes = 256;
    Machine dtb(*image, ref_cfg);
    Machine tiered(*image, cfg);
    RunResult r2 = dtb.run(sample.input);
    RunResult r4 = tiered.run(sample.input);
    EXPECT_EQ(r4.output, r2.output);
    EXPECT_EQ(r4.dirInstrs, r2.dirInstrs);
}

TEST(Tiered, ThresholdGatesTraceFormation)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    MachineConfig never = configFor(MachineKind::Tiered);
    never.tier.hotThreshold = 1u << 30; // colder than any loop here
    Machine cold(*image, never);
    RunResult rc = cold.run();
    EXPECT_EQ(rc.counters.at("tier.traces_recorded"), 0u);
    EXPECT_DOUBLE_EQ(rc.traceCoverage, 0.0);

    Machine hot(*image, configFor(MachineKind::Tiered));
    RunResult rh = hot.run();
    EXPECT_GT(rh.counters.at("tier.traces_recorded"), 0u);
    EXPECT_EQ(rh.output, rc.output);
}

// ---- multilevel-DTB hot promotion (Dtb2) -----------------------------------

TEST(Dtb2Promotion, HotLoopSteadyStateRunsFromTheFirstLevel)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    Machine machine(*image, configFor(MachineKind::Dtb2));
    RunResult r = machine.run();

    // The working set is installed into the first level...
    EXPECT_GT(r.counters.at("dtbl1.inserts"), 0u);
    // ...and the hot loop's steady state then hits there.
    EXPECT_GT(r.counter("dtbl1.hits"),
              r.counter("dtbl1.misses"));
}

TEST(Dtb2Promotion, ReuseAfterDemotionPromotesFromTheSecondLevel)
{
    // A first level too small for the loop body keeps demoting entries;
    // each reuse of a demoted entry must hit the second level and be
    // promoted back (the Promote event), never re-translated.
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg = configFor(MachineKind::Dtb2);
    cfg.dtbL1.capacityBytes = 64;
    cfg.profileEvents = true;
    Machine machine(*image, cfg);
    RunResult r = machine.run();

    EXPECT_GT(r.counters.at("dtbl1.evictions"), 0u);
    uint64_t promotes = 0;
    for (const obs::Event &e : r.events)
        promotes += e.kind == obs::EventKind::Promote;
    EXPECT_GT(promotes, 0u);
    // Promotion serves reuse from the second level: its hits dwarf its
    // misses (the only misses are first touches).
    EXPECT_GT(r.counter("dtb.hits"), r.counter("dtb.misses"));
}

TEST(Dtb2Promotion, DemotionOnEvictionKeepsRunsCorrect)
{
    DirProgram prog = hlr::compileSource(
        workload::sampleByName("qsort").source);
    const auto &input = workload::sampleByName("qsort").input;
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    MachineConfig cfg = configFor(MachineKind::Dtb2);
    cfg.dtbL1.capacityBytes = 64; // force first-level evictions
    Machine two(*image, cfg);
    Machine ref(*image, configFor(MachineKind::Dtb));
    RunResult r2 = two.run(input);
    RunResult rr = ref.run(input);

    EXPECT_GT(r2.counters.at("dtbl1.evictions"), 0u)
        << "tiny first level must demote entries";
    // Demotion is local to the first level: the run's semantics and
    // instruction stream are untouched.
    EXPECT_EQ(r2.output, rr.output);
    EXPECT_EQ(r2.dirInstrs, rr.dirInstrs);
    // Promotion keeps refilling after demotion.
    EXPECT_GT(r2.counters.at("dtbl1.inserts"),
              r2.counters.at("dtbl1.evictions"));
}

} // anonymous namespace
} // namespace uhm
