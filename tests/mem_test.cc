/**
 * @file
 * Tests for the memory substrate: two-level main memory, replacement
 * policies and the set-associative cache.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/replacement.hh"
#include "support/logging.hh"

namespace uhm
{
namespace
{

// ---- main memory -----------------------------------------------------------

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem(64, MemTiming{});
    mem.write(10, -5);
    mem.write(100, 77);
    EXPECT_EQ(mem.read(10), -5);
    EXPECT_EQ(mem.read(100), 77);
    EXPECT_EQ(mem.read(50), 0); // untouched words read as zero
}

TEST(MainMemory, LevelChargingFollowsBoundary)
{
    MemTiming timing{1, 10, 2};
    MainMemory mem(64, timing);
    mem.write(0, 1);   // level 1: +1
    mem.read(63);      // level 1: +1
    mem.read(64);      // level 2: +10
    mem.write(1000, 2);// level 2: +10
    EXPECT_EQ(mem.cycles(), 22u);
    EXPECT_EQ(mem.stats().get("mem_level1_accesses"), 2u);
    EXPECT_EQ(mem.stats().get("mem_level2_accesses"), 2u);
}

TEST(MainMemory, PeekAndPokeAreFree)
{
    MainMemory mem(64, MemTiming{});
    mem.poke(5, 42);
    EXPECT_EQ(mem.peek(5), 42);
    EXPECT_EQ(mem.cycles(), 0u);
}

TEST(MainMemory, ResetStatsKeepsContents)
{
    MainMemory mem(64, MemTiming{});
    mem.write(3, 9);
    mem.resetStats();
    EXPECT_EQ(mem.cycles(), 0u);
    EXPECT_EQ(mem.peek(3), 9);
}

TEST(MainMemory, IsLevel1Boundary)
{
    MainMemory mem(128, MemTiming{});
    EXPECT_TRUE(mem.isLevel1(0));
    EXPECT_TRUE(mem.isLevel1(127));
    EXPECT_FALSE(mem.isLevel1(128));
}

// ---- replacement -----------------------------------------------------------

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    ReplacementSet set(4, ReplPolicy::LRU, nullptr);
    set.fill(0);
    set.fill(1);
    set.fill(2);
    set.fill(3);
    EXPECT_EQ(set.victim(), 0u);
    set.touch(0);          // 1 is now LRU
    EXPECT_EQ(set.victim(), 1u);
    set.touch(1);
    set.touch(2);
    EXPECT_EQ(set.victim(), 3u);
}

TEST(Replacement, FifoIgnoresTouches)
{
    ReplacementSet set(3, ReplPolicy::FIFO, nullptr);
    set.fill(0);
    set.fill(1);
    set.fill(2);
    set.touch(0);
    set.touch(0);
    EXPECT_EQ(set.victim(), 0u); // first in, first out regardless
}

TEST(Replacement, RandomVictimsAreValidWays)
{
    Rng rng(3);
    ReplacementSet set(4, ReplPolicy::Random, &rng);
    bool saw[4] = {};
    for (int i = 0; i < 200; ++i) {
        unsigned v = set.victim();
        ASSERT_LT(v, 4u);
        saw[v] = true;
    }
    EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
}

TEST(Replacement, RandomWithoutRngPanics)
{
    EXPECT_THROW(ReplacementSet(4, ReplPolicy::Random, nullptr),
                 PanicError);
}

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::FIFO), "fifo");
    EXPECT_STREQ(replPolicyName(ReplPolicy::Random), "random");
}

// ---- cache -----------------------------------------------------------------

CacheConfig
smallCache(unsigned assoc)
{
    CacheConfig cfg;
    cfg.capacityBytes = 64; // 8 lines of 8 bytes
    cfg.lineBytes = 8;
    cfg.assoc = assoc;
    return cfg;
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(smallCache(2));
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(7));  // same line
    EXPECT_FALSE(cache.access(8)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 8 lines, 2-way -> 4 sets; line addresses with equal (line % 4)
    // collide. Lines 0, 4, 8 all map to set 0.
    SetAssocCache cache(smallCache(2));
    EXPECT_FALSE(cache.access(0 * 8));
    EXPECT_FALSE(cache.access(4 * 8));
    EXPECT_TRUE(cache.access(0 * 8));  // touch 0: 4 becomes LRU
    EXPECT_FALSE(cache.access(8 * 8)); // evicts 4
    EXPECT_TRUE(cache.access(0 * 8));
    EXPECT_FALSE(cache.access(4 * 8)); // 4 was evicted
}

TEST(Cache, NonPowerOfTwoGeometryMapsByDivision)
{
    // 12-byte lines, 6 lines, 2-way -> 3 sets: the divide path of
    // access() (power-of-two geometries shift instead). Lines 0, 3 and
    // 6 share set 0.
    CacheConfig cfg;
    cfg.capacityBytes = 72;
    cfg.lineBytes = 12;
    cfg.assoc = 2;
    SetAssocCache cache(cfg);
    EXPECT_EQ(cache.numSets(), 3u);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(11));      // same 12-byte line
    EXPECT_FALSE(cache.access(12));     // line 1, set 1
    EXPECT_FALSE(cache.access(3 * 12)); // line 3, set 0
    EXPECT_FALSE(cache.access(6 * 12)); // line 6, set 0: evicts line 0
    EXPECT_TRUE(cache.access(12));      // set 1 untouched
    EXPECT_FALSE(cache.access(0));      // line 0 was evicted
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    CacheConfig cfg = smallCache(0); // fully associative
    SetAssocCache cache(cfg);
    EXPECT_EQ(cache.numSets(), 1u);
    EXPECT_EQ(cache.assoc(), 8u);
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_FALSE(cache.access(line * 8));
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_TRUE(cache.access(line * 8));
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache cache(smallCache(2));
    cache.access(0);
    cache.flush();
    EXPECT_FALSE(cache.access(0));
}

TEST(Cache, LoopingTraceHitRatioImprovesWithCapacity)
{
    // A loop over 32 lines: an 8-line cache thrashes, a 64-line cache
    // holds the whole loop.
    CacheConfig small_cfg;
    small_cfg.capacityBytes = 8 * 8;
    small_cfg.lineBytes = 8;
    small_cfg.assoc = 4;
    CacheConfig big_cfg = small_cfg;
    big_cfg.capacityBytes = 64 * 8;

    SetAssocCache small(small_cfg), big(big_cfg);
    for (int pass = 0; pass < 10; ++pass) {
        for (uint64_t line = 0; line < 32; ++line) {
            small.access(line * 8);
            big.access(line * 8);
        }
    }
    EXPECT_LT(small.hitRatio(), 0.5);
    EXPECT_GT(big.hitRatio(), 0.85);
}

TEST(Cache, BadGeometryIsFatal)
{
    // Geometry is user configuration: a user error, not a panic.
    CacheConfig cfg;
    cfg.capacityBytes = 4;
    cfg.lineBytes = 8;
    EXPECT_THROW(SetAssocCache{cfg}, FatalError);

    cfg = smallCache(16); // more ways than lines
    EXPECT_THROW(SetAssocCache{cfg}, FatalError);
}

class CacheAssocSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheAssocSweep, ConflictTraceBenefitsFromAssociativity)
{
    // Two interleaved streams that collide in a direct-mapped cache.
    CacheConfig cfg;
    cfg.capacityBytes = 32 * 8;
    cfg.lineBytes = 8;
    cfg.assoc = GetParam();
    SetAssocCache cache(cfg);
    uint64_t sets = cache.numSets();
    for (int pass = 0; pass < 50; ++pass) {
        cache.access(0);
        cache.access(sets * 8);     // same set as 0 when assoc >= 1
        cache.access(2 * sets * 8); // same set again
    }
    if (cfg.assoc <= 2) {
        // Three conflicting lines cycling through <=2 ways under LRU
        // thrash permanently.
        EXPECT_LT(cache.hitRatio(), 0.1);
    } else {
        EXPECT_GT(cache.hitRatio(), 0.9);
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // anonymous namespace
} // namespace uhm
