/**
 * @file
 * Tests for the paper's core contribution: the dynamic translation
 * buffer (section 5) and the dynamic translator (section 4 / Figure 4).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dtb.hh"
#include "core/translator.hh"
#include "core/trace_sim.hh"
#include "dir/encoding.hh"
#include "hlr/compiler.hh"
#include "psder/staging.hh"
#include "support/logging.hh"
#include "uhm/machine.hh"
#include "uhm/run_image.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm
{
namespace
{

std::vector<ShortInstr>
fakeCode(size_t len, int64_t tag)
{
    std::vector<ShortInstr> code;
    for (size_t i = 0; i + 1 < len; ++i)
        code.push_back({SOp::PUSH, SMode::Imm, tag + int64_t(i)});
    code.push_back({SOp::INTERP, SMode::Imm, tag});
    return code;
}

DtbConfig
smallDtb()
{
    DtbConfig cfg;
    cfg.capacityBytes = 4096;
    cfg.unitShortInstrs = 4;
    cfg.assoc = 4;
    return cfg;
}

// ---- lookup / insert -------------------------------------------------------

TEST(Dtb, MissThenHitAfterInsert)
{
    Dtb dtb(smallDtb());
    EXPECT_EQ(dtb.lookup(100), Dtb::npos);
    EXPECT_TRUE(dtb.insert(100, fakeCode(3, 7)).retained);
    uint32_t idx = dtb.lookup(100);
    ASSERT_NE(idx, Dtb::npos);
    EXPECT_EQ(dtb.payloadAt(idx), fakeCode(3, 7));
    EXPECT_EQ(dtb.hits(), 1u);
    EXPECT_EQ(dtb.misses(), 1u);
}

TEST(Dtb, DistinctAddressesDoNotAlias)
{
    Dtb dtb(smallDtb());
    dtb.insert(1, fakeCode(2, 10));
    dtb.insert(2, fakeCode(2, 20));
    EXPECT_EQ(dtb.payloadAt(dtb.lookup(1)), fakeCode(2, 10));
    EXPECT_EQ(dtb.payloadAt(dtb.lookup(2)), fakeCode(2, 20));
    EXPECT_EQ(dtb.lookup(3), Dtb::npos);
}

TEST(Dtb, GeometryFollowsConfig)
{
    DtbConfig cfg = smallDtb();
    // 4096 bytes / (4 instrs * 2 bytes) = 512 units; 25% overflow ->
    // 384 primary entries in 96 sets of 4.
    Dtb dtb(cfg);
    EXPECT_EQ(dtb.numEntries(), 384u);
    EXPECT_EQ(dtb.numSets(), 96u);
    EXPECT_EQ(dtb.assoc(), 4u);
    EXPECT_EQ(dtb.overflowTotal(), 128u);
    EXPECT_EQ(dtb.overflowFree(), 128u);
}

TEST(Dtb, BadGeometryIsFatal)
{
    // Geometry is user configuration: a user error, not a panic.
    DtbConfig cfg = smallDtb();
    cfg.capacityBytes = 1; // smaller than one unit
    EXPECT_THROW(Dtb{cfg}, FatalError);
    cfg = smallDtb();
    cfg.assoc = 100000; // more ways than entries
    EXPECT_THROW(Dtb{cfg}, FatalError);
}

TEST(Dtb, WaysAboveTheLimitAreFatal)
{
    // 8192 bytes with no overflow area = 1024 entries of 8 bytes: one
    // fully associative set at the limit is built; one more entry, or
    // 1025 ways of a larger buffer, is refused before allocating.
    DtbConfig cfg = smallDtb();
    cfg.allowOverflow = false;
    cfg.capacityBytes = 8192;
    cfg.assoc = 0;
    EXPECT_EQ(Dtb{cfg}.assoc(), maxWays);
    cfg.capacityBytes = 8200;
    EXPECT_THROW(Dtb{cfg}, FatalError);
    cfg.capacityBytes = maxBufferBytes;
    EXPECT_THROW(Dtb{cfg}, FatalError);
    cfg.assoc = 1025;
    EXPECT_THROW(Dtb{cfg}, FatalError);
    cfg.assoc = 1024;
    EXPECT_EQ(Dtb{cfg}.assoc(), 1024u);
}

TEST(Dtb, FullyAssociativeSingleSet)
{
    DtbConfig cfg = smallDtb();
    cfg.assoc = 0;
    Dtb dtb(cfg);
    EXPECT_EQ(dtb.numSets(), 1u);
    EXPECT_EQ(dtb.assoc(), dtb.numEntries());
}

TEST(Dtb, LruEvictionWithinFullyAssociativeSet)
{
    DtbConfig cfg;
    cfg.capacityBytes = 4 * 4 * 2; // exactly 4 units of 4 instrs
    cfg.unitShortInstrs = 4;
    cfg.assoc = 0;
    cfg.allowOverflow = false;
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.numEntries(), 4u);

    for (uint64_t a = 0; a < 4; ++a)
        dtb.insert(a, fakeCode(2, int64_t(a)));
    // Touch 0 so 1 is the LRU entry.
    EXPECT_NE(dtb.lookup(0), Dtb::npos);
    dtb.insert(99, fakeCode(2, 99));
    EXPECT_NE(dtb.lookup(0), Dtb::npos);
    EXPECT_EQ(dtb.lookup(1), Dtb::npos); // evicted
    EXPECT_NE(dtb.lookup(99), Dtb::npos);
    EXPECT_GE(dtb.evictions(), 1u);
}

TEST(Dtb, SetMappingIsStable)
{
    Dtb dtb(smallDtb());
    EXPECT_EQ(dtb.setOf(1234), dtb.setOf(1234));
    EXPECT_LT(dtb.setOf(1234), dtb.numSets());
}

TEST(Dtb, GenerationDoesNotWrapAt32Bits)
{
    DtbConfig cfg;
    cfg.capacityBytes = 8; // one 4-instruction unit: one entry
    cfg.assoc = 1;
    cfg.unitShortInstrs = 4;
    cfg.allowOverflow = false;
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.numEntries(), 1u);
    Dtb::InsertOutcome first = dtb.insert(1, fakeCode(2, 1));
    ASSERT_TRUE(first.retained);
    // As if the slot had been refilled 2^32 - 1 times.
    dtb.metaAt(first.entryIdx).gen = UINT32_MAX;
    Dtb::InsertOutcome again = dtb.insert(2, fakeCode(2, 2));
    ASSERT_TRUE(again.evicted);
    ASSERT_EQ(again.entryIdx, first.entryIdx);
    EXPECT_EQ(dtb.metaAt(again.entryIdx).gen, uint64_t{1} << 32);
    // A never-lowered slot never validates against it.
    FastSlots slots;
    slots.resize(1);
    EXPECT_NE(dtb.metaAt(again.entryIdx).gen, slots.gen[0]);
}

// ---- allocation units and the overflow area --------------------------------

TEST(Dtb, LongTranslationConsumesOverflowBlocks)
{
    Dtb dtb(smallDtb());
    uint64_t free_before = dtb.overflowFree();
    // 10 instrs at unit 4 -> 3 units -> 2 overflow blocks.
    EXPECT_TRUE(dtb.insert(5, fakeCode(10, 1)).retained);
    EXPECT_EQ(dtb.overflowFree(), free_before - 2);
    uint32_t idx = dtb.lookup(5);
    ASSERT_NE(idx, Dtb::npos);
    EXPECT_EQ(dtb.metaAt(idx).units, 3u);
}

TEST(Dtb, EvictionReleasesOverflowBlocks)
{
    DtbConfig cfg;
    cfg.capacityBytes = 8 * 4 * 2; // 8 units
    cfg.unitShortInstrs = 4;
    cfg.assoc = 0;
    cfg.overflowFraction = 0.5;    // 4 primary, 4 overflow
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.numEntries(), 4u);
    ASSERT_EQ(dtb.overflowTotal(), 4u);

    EXPECT_TRUE(dtb.insert(1, fakeCode(12, 1)).retained); // 3 units: 2 overflow
    EXPECT_EQ(dtb.overflowFree(), 2u);
    // Fill the remaining primary ways.
    dtb.insert(2, fakeCode(2, 2));
    dtb.insert(3, fakeCode(2, 3));
    dtb.insert(4, fakeCode(2, 4));
    // Next insert evicts entry 1 (LRU) and frees its blocks.
    EXPECT_TRUE(dtb.insert(5, fakeCode(2, 5)).retained);
    EXPECT_EQ(dtb.overflowFree(), 4u);
    EXPECT_EQ(dtb.lookup(1), Dtb::npos);
}

TEST(Dtb, OverflowExhaustionRejectsButDoesNotBreak)
{
    DtbConfig cfg;
    cfg.capacityBytes = 8 * 4 * 2;
    cfg.unitShortInstrs = 4;
    cfg.assoc = 0;
    cfg.overflowFraction = 0.25; // 6 primary, 2 overflow
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.overflowTotal(), 2u);

    EXPECT_TRUE(dtb.insert(1, fakeCode(12, 1)).retained);  // takes both blocks
    EXPECT_FALSE(dtb.insert(2, fakeCode(12, 2)).retained); // rejected
    EXPECT_GE(dtb.rejects(), 1u);
    EXPECT_EQ(dtb.lookup(2), Dtb::npos);
    // Short translations still insert fine.
    EXPECT_TRUE(dtb.insert(3, fakeCode(3, 3)).retained);
}

TEST(Dtb, RejectedInsertPreservesResidentVictim)
{
    // Regression: insert used to evict the replacement victim *before*
    // discovering the overflow area could not hold the new translation,
    // destroying a resident (possibly hot) entry and then rejecting
    // anyway. The reservation must come first.
    DtbConfig cfg;
    cfg.capacityBytes = 8 * 4 * 2;
    cfg.unitShortInstrs = 4;
    cfg.assoc = 0;
    cfg.overflowFraction = 0.25; // 6 primary, 2 overflow
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.numEntries(), 6u);
    ASSERT_EQ(dtb.overflowTotal(), 2u);

    // Entry 1 takes both overflow blocks; 2..6 fill the primaries.
    ASSERT_TRUE(dtb.insert(1, fakeCode(12, 1)).retained);
    for (uint64_t a = 2; a <= 6; ++a)
        ASSERT_TRUE(dtb.insert(a, fakeCode(2, int64_t(a))).retained);
    ASSERT_EQ(dtb.overflowFree(), 0u);

    // A 16-instr translation needs 3 overflow blocks. Even evicting the
    // LRU victim (entry 1, which would release only 2) cannot supply
    // them, so the insert must reject WITHOUT destroying the victim.
    Dtb::InsertOutcome out = dtb.insert(7, fakeCode(16, 7));
    EXPECT_FALSE(out.retained);
    EXPECT_FALSE(out.evicted);
    EXPECT_EQ(out.unitsNeeded, 4u);
    EXPECT_GE(dtb.rejects(), 1u);
    EXPECT_EQ(dtb.evictions(), 0u);
    EXPECT_EQ(dtb.overflowFree(), 0u);

    // Every resident entry — the would-be victim included — still hits.
    for (uint64_t a = 1; a <= 6; ++a)
        EXPECT_NE(dtb.lookup(a), Dtb::npos) << "entry " << a;
    EXPECT_EQ(dtb.lookup(7), Dtb::npos);
}

TEST(Dtb, EvictionCountsVictimBlocksTowardOverflow)
{
    // The flip side of the reservation fix: the blocks the victim would
    // release count toward the overflow check, so an insert that fits
    // only thanks to the eviction still succeeds.
    DtbConfig cfg;
    cfg.capacityBytes = 8 * 4 * 2;
    cfg.unitShortInstrs = 4;
    cfg.assoc = 0;
    cfg.overflowFraction = 0.5; // 4 primary, 4 overflow
    Dtb dtb(cfg);
    ASSERT_EQ(dtb.numEntries(), 4u);
    ASSERT_EQ(dtb.overflowTotal(), 4u);

    // A holds all 4 overflow blocks; B, C, D fill the primaries and are
    // touched so A is the LRU victim.
    ASSERT_TRUE(dtb.insert(1, fakeCode(20, 1)).retained);
    for (uint64_t a = 2; a <= 4; ++a)
        ASSERT_TRUE(dtb.insert(a, fakeCode(2, int64_t(a))).retained);
    for (uint64_t a = 2; a <= 4; ++a)
        ASSERT_NE(dtb.lookup(a), Dtb::npos);
    ASSERT_EQ(dtb.overflowFree(), 0u);

    // E needs 2 overflow blocks; none are free, but evicting A releases
    // 4, so the insert succeeds.
    Dtb::InsertOutcome out = dtb.insert(5, fakeCode(12, 5));
    EXPECT_TRUE(out.retained);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimTag, 1u);
    EXPECT_EQ(out.unitsNeeded, 3u);
    EXPECT_EQ(dtb.lookup(1), Dtb::npos);
    EXPECT_NE(dtb.lookup(5), Dtb::npos);
    EXPECT_EQ(dtb.overflowFree(), 2u);
}

TEST(Dtb, FixedAllocationRejectsOversizedTranslations)
{
    DtbConfig cfg = smallDtb();
    cfg.allowOverflow = false;
    Dtb dtb(cfg);
    EXPECT_FALSE(dtb.insert(1, fakeCode(5, 1)).retained);
    EXPECT_TRUE(dtb.insert(1, fakeCode(4, 1)).retained);
}

TEST(Dtb, InvalidateAllEmptiesBufferAndRestoresOverflow)
{
    Dtb dtb(smallDtb());
    dtb.insert(1, fakeCode(10, 1));
    dtb.insert(2, fakeCode(2, 2));
    dtb.invalidateAll();
    EXPECT_EQ(dtb.lookup(1), Dtb::npos);
    EXPECT_EQ(dtb.lookup(2), Dtb::npos);
    EXPECT_EQ(dtb.overflowFree(), dtb.overflowTotal());
}

TEST(Dtb, HitRatioTracksAccessMix)
{
    Dtb dtb(smallDtb());
    dtb.insert(1, fakeCode(2, 1));
    dtb.resetStats();
    for (int i = 0; i < 8; ++i)
        dtb.lookup(1);
    dtb.lookup(999);
    dtb.lookup(998);
    EXPECT_NEAR(dtb.hitRatio(), 0.8, 1e-12);
}

// ---- dynamic translator ----------------------------------------------------

class TranslatorFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = hlr::compileSource(
            workload::sampleByName("qsort").source);
        image_ = encodeDir(prog_, EncodingScheme::Huffman);
    }

    DirProgram prog_;
    std::unique_ptr<EncodedDir> image_;
};

TEST_F(TranslatorFixture, TranslationMatchesStagingLowering)
{
    DynamicTranslator translator(*image_);
    for (size_t i = 0; i < prog_.size(); ++i) {
        uint64_t addr = image_->bitAddrOf(i);
        Translation tr = translator.translate(addr);
        DecodeResult res = image_->decodeAt(addr);
        std::vector<ShortInstr> expected;
        lowerStaging(stageInstruction(res.instr, *image_, i), expected);
        EXPECT_TRUE(std::ranges::equal(tr.code, expected)) << "instr " << i;
        EXPECT_EQ(tr.genSteps, expected.size());
        EXPECT_EQ(tr.bits, res.nextBitAddr - addr);
        EXPECT_GT(tr.decodeCost.total(), 0u);
    }
}

TEST_F(TranslatorFixture, MappingIsAlmostOneToOne)
{
    // "Since the mapping from DIR to PSDER is almost one-to-one, the
    // added complexity is not significant": each DIR instruction yields
    // a handful of short instructions, never dozens.
    DynamicTranslator translator(*image_);
    for (size_t i = 0; i < prog_.size(); ++i) {
        Translation tr = translator.translate(image_->bitAddrOf(i));
        EXPECT_GE(tr.code.size(), 1u);
        EXPECT_LE(tr.code.size(), 6u);
    }
}

TEST_F(TranslatorFixture, TranslationsRoundTripThroughDtb)
{
    DynamicTranslator translator(*image_);
    Dtb dtb(smallDtb());
    for (size_t i = 0; i < std::min<size_t>(prog_.size(), 50); ++i) {
        uint64_t addr = image_->bitAddrOf(i);
        Translation tr = translator.translate(addr);
        ASSERT_TRUE(dtb.insert(addr, tr.code).retained);
        uint32_t idx = dtb.lookup(addr);
        ASSERT_NE(idx, Dtb::npos);
        EXPECT_TRUE(std::ranges::equal(dtb.payloadAt(idx), tr.code));
    }
}

// ---- trace-driven DTB simulation -------------------------------------------

class TraceSimFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::SyntheticConfig wcfg;
        wcfg.numLoops = 8;
        wcfg.bodyInstrs = 40;
        wcfg.iterations = 6;
        wcfg.outerRepeats = 4;
        wcfg.seed = 61;
        prog_ = workload::generateSynthetic(wcfg);
        image_ = encodeDir(prog_, EncodingScheme::Huffman);

        MachineConfig cfg;
        cfg.kind = MachineKind::Dtb;
        cfg.captureAddressTrace = true;
        Machine machine(*image_, cfg);
        run_ = machine.run();
        translator_ = std::make_unique<DynamicTranslator>(*image_);
    }

    std::function<unsigned(uint64_t)>
    sizeOf()
    {
        return [this](uint64_t addr) {
            return static_cast<unsigned>(
                translator_->translate(addr).code.size());
        };
    }

    DirProgram prog_;
    std::unique_ptr<EncodedDir> image_;
    std::unique_ptr<DynamicTranslator> translator_;
    RunResult run_;
};

TEST_F(TraceSimFixture, TraceLengthMatchesInstructionCount)
{
    EXPECT_EQ(run_.addressTrace.size(), run_.dirInstrs);
    EXPECT_EQ(run_.addressTrace.front(), image_->entryBitAddr());
}

TEST_F(TraceSimFixture, ReplayReproducesFullSimulationExactly)
{
    // Same DTB configuration as the machine used: identical hit/miss
    // counts, not just close ones.
    MachineConfig cfg;
    TraceSimResult replay =
        simulateDtbTrace(run_.addressTrace, cfg.dtb, sizeOf());
    EXPECT_EQ(replay.hits, run_.counter("dtb.hits"));
    EXPECT_EQ(replay.misses, run_.counter("dtb.misses"));
    EXPECT_EQ(replay.rejects, run_.counter("dtb.rejects"));
}

TEST_F(TraceSimFixture, ReplayMatchesAlternativeConfigurations)
{
    // Cross-check several other configurations against full simulation.
    for (auto [cap, assoc, unit] :
         std::vector<std::tuple<uint64_t, unsigned, unsigned>>{
             {1024, 2, 4}, {2048, 0, 3}, {512, 4, 2}}) {
        MachineConfig cfg;
        cfg.kind = MachineKind::Dtb;
        cfg.dtb.capacityBytes = cap;
        cfg.dtb.assoc = assoc;
        cfg.dtb.unitShortInstrs = unit;
        Machine machine(*image_, cfg);
        RunResult full = machine.run();
        TraceSimResult replay =
            simulateDtbTrace(run_.addressTrace, cfg.dtb, sizeOf());
        EXPECT_EQ(replay.hits, full.counter("dtb.hits"))
            << cap << "/" << assoc << "/" << unit;
        EXPECT_EQ(replay.misses, full.counter("dtb.misses"));
    }
}

TEST_F(TraceSimFixture, CapacitySweepIsMonotone)
{
    double prev = -1.0;
    for (uint64_t cap : {256u, 512u, 1024u, 4096u, 16384u}) {
        DtbConfig cfg;
        cfg.capacityBytes = cap;
        TraceSimResult r =
            simulateDtbTrace(run_.addressTrace, cfg, sizeOf());
        EXPECT_GE(r.hitRatio() + 1e-12, prev) << cap;
        prev = r.hitRatio();
    }
}

TEST(TraceSim, EmptyTrace)
{
    DtbConfig cfg;
    TraceSimResult r = simulateDtbTrace({}, cfg, [](uint64_t) {
        return 2u;
    });
    EXPECT_EQ(r.hits, 0u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_DOUBLE_EQ(r.hitRatio(), 1.0);
}

} // anonymous namespace
} // namespace uhm
