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
#include "obs/registry.hh"
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

/**
 * A counted trace-cache lookup, as TierEngine::lookupTrace makes it:
 * one probe, then one hit or one miss committed. The hit's entry index,
 * or npos.
 */
uint32_t
countedLookup(TraceCache &cache, uint64_t head)
{
    uint32_t idx = cache.probeIdx(head);
    if (idx == TraceCache::npos)
        cache.countMiss();
    else
        cache.hitAt(idx);
    return idx;
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
    EXPECT_EQ(countedLookup(cache, 100), TraceCache::npos); // miss
    auto out = cache.insert(traceOf(100, 4));
    EXPECT_TRUE(out.retained);
    EXPECT_EQ(out.unitsNeeded, 1u);
    uint32_t idx = countedLookup(cache, 100);
    ASSERT_NE(idx, TraceCache::npos);
    EXPECT_EQ(cache.payloadAt(idx).head, 100u);
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

TEST(TraceCache, WaysAboveTheLimitAreFatal)
{
    EXPECT_EQ(TraceCache{tinyCache(1024)}.assoc(), maxWays);
    EXPECT_THROW(TraceCache{tinyCache(1025)}, FatalError);
    TraceCacheConfig cfg = tinyCache(1);
    cfg.capacityBytes = maxBufferBytes;
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
    uint32_t idx = cache.probeIdx(100);
    ASSERT_NE(idx, TraceCache::npos);
    EXPECT_EQ(cache.payloadAt(idx).shortCount, 8u);
}

TEST(TraceCache, GenerationDoesNotWrapAt32Bits)
{
    TraceCache cache(tinyCache(4));
    ASSERT_TRUE(cache.insert(traceOf(100, 4)).retained);
    uint32_t idx = cache.probeIdx(100);
    ASSERT_NE(idx, TraceCache::npos);
    // As if the slot had been refilled 2^32 - 1 times.
    cache.metaAt(idx).gen = UINT32_MAX;
    ASSERT_TRUE(cache.insert(traceOf(100, 4)).evicted);
    ASSERT_EQ(cache.probeIdx(100), idx);
    EXPECT_GT(cache.metaAt(idx).gen, uint64_t{UINT32_MAX});
}

TEST(TraceCache, LruEvictsTheLeastRecentlyTouched)
{
    TraceCache cache(tinyCache(2)); // 2 entries, one set
    ASSERT_TRUE(cache.insert(traceOf(1, 4)).retained);
    ASSERT_TRUE(cache.insert(traceOf(2, 4)).retained);
    // 1 is now most recent.
    ASSERT_NE(countedLookup(cache, 1), TraceCache::npos);
    auto out = cache.insert(traceOf(3, 4));
    EXPECT_TRUE(out.retained);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimHead, 2u);
    EXPECT_NE(cache.probeIdx(1), TraceCache::npos);
    EXPECT_EQ(cache.probeIdx(2), TraceCache::npos);
    EXPECT_NE(cache.probeIdx(3), TraceCache::npos);
}

TEST(TraceCache, OversizedInsertIsRejectedAndVictimSurvives)
{
    TraceCache cache(tinyCache(2));
    ASSERT_TRUE(cache.insert(traceOf(1, 8)).retained); // both units
    // 16 shorts need 4 units; even evicting a victim frees only 2.
    auto out = cache.insert(traceOf(2, 16));
    EXPECT_FALSE(out.retained);
    EXPECT_FALSE(out.evicted);
    EXPECT_NE(cache.probeIdx(1), TraceCache::npos)
        << "victim must survive a reject";
    EXPECT_EQ(cache.probeIdx(2), TraceCache::npos);
    EXPECT_EQ(cache.unitsUsed(), 2u);
}

TEST(TraceCache, InvalidateReleasesUnits)
{
    TraceCache cache(tinyCache(4));
    ASSERT_TRUE(cache.insert(traceOf(7, 8)).retained);
    EXPECT_EQ(cache.unitsUsed(), 2u);
    EXPECT_FALSE(cache.invalidate(9)); // not resident
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_EQ(cache.probeIdx(7), TraceCache::npos);
    EXPECT_EQ(cache.unitsUsed(), 0u);
    EXPECT_FALSE(cache.invalidate(7)); // already gone
}

// ---- the trace cache against its reference -------------------------------

/** The victim of a full set: Random draws, else the lowest stamp
 *  (ties to the lowest way). */
template <typename StampOf>
unsigned
referenceVictim(ReplPolicy policy, Rng &rng, unsigned ways,
                StampOf stamp_of)
{
    if (policy == ReplPolicy::Random)
        return static_cast<unsigned>(rng.below(ways));
    unsigned oldest = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (stamp_of(w) < stamp_of(oldest))
            oldest = w;
    }
    return oldest;
}

/**
 * Reference trace cache: TraceCache as it was while it kept its own
 * copy of the set-associative machinery — the `(h >> 32) % numSets`
 * set hash, a tag scan per operation, a same-head scan before the
 * fill, a separate scan for the first invalid way, referenceVictim()
 * only when the set is full, and the unit budget checked before the
 * victim is destroyed. A twin TraceCache is compared with it step by
 * step.
 */
class RefTraceCache
{
  public:
    explicit RefTraceCache(const TraceCacheConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed), repl_(cfg.policy, &rng_)
    {
        uint64_t unit_bytes =
            (uint64_t{cfg.unitShortInstrs} * shortInstrBits + 7) / 8;
        unitsTotal_ = cfg.capacityBytes / unit_bytes;
        uint64_t entries = unitsTotal_;
        assoc_ = cfg.assoc == 0 || cfg.assoc > entries ?
            static_cast<unsigned>(entries) : cfg.assoc;
        numSets_ = entries / assoc_;
        entries_.assign(numSets_ * assoc_, Entry{});
    }

    /** The entry index holding @p head, or UINT32_MAX. No accounting. */
    uint32_t
    find(uint64_t head) const
    {
        uint64_t set = setOf(head);
        for (unsigned w = 0; w < assoc_; ++w) {
            const EntryMeta &m = entries_[set * assoc_ + w].meta;
            if (m.valid && m.tag == head)
                return static_cast<uint32_t>(set * assoc_ + w);
        }
        return UINT32_MAX;
    }

    /** A counted lookup: the hit's entry index, or UINT32_MAX. */
    uint32_t
    lookup(uint64_t head)
    {
        uint32_t idx = find(head);
        if (idx == UINT32_MAX) {
            ++misses;
            return idx;
        }
        repl_.touch(entries_[idx].meta.stamp);
        ++hits;
        ++entries_[idx].meta.useCount;
        return idx;
    }

    TraceCache::InsertOutcome
    insert(const Trace &trace)
    {
        unsigned units_needed = static_cast<unsigned>(
            (trace.shortCount + cfg_.unitShortInstrs - 1) /
            cfg_.unitShortInstrs);
        if (units_needed == 0)
            units_needed = 1;
        TraceCache::InsertOutcome out;
        out.unitsNeeded = units_needed;
        uint64_t set = setOf(trace.head);
        Entry *set_entries = &entries_[set * assoc_];
        unsigned way = assoc_;
        uint32_t same = find(trace.head);
        if (same != UINT32_MAX) {
            way = static_cast<unsigned>(same - set * assoc_);
        } else {
            for (unsigned w = 0; w < assoc_ && way == assoc_; ++w) {
                if (!set_entries[w].meta.valid)
                    way = w;
            }
            if (way == assoc_) {
                way = referenceVictim(cfg_.policy, rng_, assoc_,
                                      [&](unsigned w) {
                                          return set_entries[w]
                                              .meta.stamp;
                                      });
            }
        }
        Entry &e = set_entries[way];
        uint64_t victim_release = e.meta.valid ? e.meta.units : 0;
        if (units_needed > unitsTotal_ - unitsUsed + victim_release) {
            ++rejects;
            return out;
        }
        if (e.meta.valid) {
            out.evicted = true;
            out.victimHead = e.meta.tag;
            evict(e);
            ++evictions;
        }
        e.meta.reset();
        e.meta.tag = trace.head;
        e.meta.valid = true;
        e.meta.units = units_needed;
        e.shortCount = trace.shortCount;
        unitsUsed += units_needed;
        repl_.fill(e.meta.stamp);
        ++inserts;
        out.retained = true;
        return out;
    }

    bool
    invalidate(uint64_t head)
    {
        uint32_t idx = find(head);
        if (idx == UINT32_MAX)
            return false;
        evict(entries_[idx]);
        ++invalidations;
        return true;
    }

    void
    invalidateAll()
    {
        for (Entry &e : entries_) {
            if (e.meta.valid)
                evict(e);
        }
    }

    uint64_t shortCountAt(uint32_t idx) const
    {
        return entries_[idx].shortCount;
    }

    uint64_t numEntries() const { return entries_.size(); }

    uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0,
             rejects = 0, invalidations = 0, unitsUsed = 0;

  private:
    struct Entry
    {
        EntryMeta meta;
        uint64_t shortCount = 0;
    };

    uint64_t
    setOf(uint64_t head) const
    {
        uint64_t h = head * 0x9e3779b97f4a7c15ull;
        return (h >> 32) % numSets_;
    }

    void
    evict(Entry &e)
    {
        unitsUsed -= e.meta.units;
        e.meta.reset();
        e.shortCount = 0;
    }

    TraceCacheConfig cfg_;
    Rng rng_;
    UseClock repl_;
    unsigned assoc_ = 1;
    uint64_t numSets_ = 1;
    uint64_t unitsTotal_ = 0;
    std::vector<Entry> entries_;
};

TEST(TraceCache, MatchesTheReferenceCache)
{
    // Twin caches under 20000 random inserts, lookups, invalidations
    // and whole-cache invalidations. Heads come from twice the entry
    // count, so same-head re-installs are common; traces take one to
    // three units, and one in twenty needs more units than the cache
    // has, so the unit budget rejects both oversized traces and
    // multi-unit ones that meet a full pool.
    const unsigned assocs[] = {1, 2, 4, 0};
    const ReplPolicy policies[] = {ReplPolicy::LRU, ReplPolicy::FIFO,
                                   ReplPolicy::Random};
    for (unsigned assoc : assocs) {
        for (ReplPolicy policy : policies) {
            TraceCacheConfig cfg;
            cfg.unitShortInstrs = 4; // 8-byte unit
            cfg.capacityBytes = 24 * 8 + 5; // 24 units, 5 bytes spare
            cfg.assoc = assoc;
            cfg.policy = policy;
            cfg.seed = 23;
            SCOPED_TRACE(testing::Message()
                         << assoc << " ways, " << replPolicyName(policy));
            TraceCache cache(cfg);
            RefTraceCache ref(cfg);
            ASSERT_EQ(cache.numEntries(), ref.numEntries());
            obs::Registry reg;
            cache.registerCounters(reg, "tc");
            Rng ops(assoc * 31 + static_cast<unsigned>(policy) + 5);
            uint64_t heads = 2 * ref.numEntries();
            uint64_t same_head = 0;
            for (int step = 0; step < 20000; ++step) {
                uint64_t head = 96 * ops.below(heads) + 11;
                uint64_t op = ops.below(1000);
                if (op < 450) {
                    uint64_t shorts = ops.below(20) == 0 ?
                        4 * 30 : 1 + ops.below(12);
                    same_head += cache.probeIdx(head) != TraceCache::npos;
                    TraceCache::InsertOutcome want =
                        ref.insert(traceOf(head, shorts));
                    TraceCache::InsertOutcome got =
                        cache.insert(traceOf(head, shorts));
                    ASSERT_EQ(got.retained, want.retained)
                        << "step " << step;
                    ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
                    ASSERT_EQ(got.victimHead, want.victimHead)
                        << "step " << step;
                    ASSERT_EQ(got.unitsNeeded, want.unitsNeeded)
                        << "step " << step;
                } else if (op < 850) {
                    uint32_t want = ref.lookup(head);
                    ASSERT_EQ(countedLookup(cache, head), want)
                        << "step " << step;
                } else if (op < 995) {
                    ASSERT_EQ(cache.invalidate(head), ref.invalidate(head))
                        << "step " << step;
                } else {
                    ref.invalidateAll();
                    cache.invalidateAll();
                }
                uint32_t idx = ref.find(head);
                ASSERT_EQ(cache.probeIdx(head), idx) << "step " << step;
                if (idx != UINT32_MAX) {
                    ASSERT_EQ(cache.payloadAt(idx).shortCount,
                              ref.shortCountAt(idx))
                        << "step " << step;
                }
                ASSERT_EQ(cache.hits(), ref.hits) << "step " << step;
                ASSERT_EQ(cache.misses(), ref.misses) << "step " << step;
                ASSERT_EQ(reg.get("tc.inserts"), ref.inserts)
                    << "step " << step;
                ASSERT_EQ(reg.get("tc.evictions"), ref.evictions)
                    << "step " << step;
                ASSERT_EQ(reg.get("tc.rejects"), ref.rejects)
                    << "step " << step;
                ASSERT_EQ(reg.get("tc.invalidations"), ref.invalidations)
                    << "step " << step;
                ASSERT_EQ(cache.unitsUsed(), ref.unitsUsed)
                    << "step " << step;
            }
            EXPECT_GT(ref.evictions, 1000u);
            EXPECT_GT(ref.rejects, 300u);
            EXPECT_GT(same_head, 1000u);
        }
    }
}

// ---- the DTB anchor flag ---------------------------------------------------

TEST(DtbAnchors, MarkRequiresResidency)
{
    Dtb dtb(DtbConfig{});
    EXPECT_FALSE(dtb.markTraceAnchor(64));
    dtb.insert(64, std::vector<ShortInstr>(2));
    EXPECT_TRUE(dtb.markTraceAnchor(64));
    uint32_t idx = dtb.lookup(64);
    ASSERT_NE(idx, Dtb::npos);
    EXPECT_TRUE(dtb.metaAt(idx).anchorsTrace);
    dtb.clearTraceAnchor(64);
    EXPECT_FALSE(dtb.metaAt(dtb.lookup(64)).anchorsTrace);
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
    ASSERT_NE(engine.cache().probeIdx(head), TraceCache::npos);
    ASSERT_TRUE(dtb.metaAt(dtb.lookup(head)).anchorsTrace);

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
    EXPECT_EQ(engine.cache().probeIdx(head), TraceCache::npos)
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
