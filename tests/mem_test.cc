/**
 * @file
 * Tests for the memory substrate: two-level main memory, replacement
 * policies and the set-associative cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/replacement.hh"
#include "obs/registry.hh"
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
    obs::Registry reg;
    mem.registerCounters(reg, "mem");
    EXPECT_EQ(reg.get("mem.level1_accesses"), 2u);
    EXPECT_EQ(reg.get("mem.level2_accesses"), 2u);
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

/** One set's ways under a UseClock: a stamp per way, as the
 *  structures keep them in their entries. */
class StampedSet
{
  public:
    StampedSet(unsigned ways, ReplPolicy policy, Rng *rng)
        : clock_(policy, rng), stamps_(ways, 0)
    {}

    unsigned
    victim()
    {
        return clock_.victim(static_cast<unsigned>(stamps_.size()),
                             [&](unsigned w) { return stamps_[w]; });
    }
    void touch(unsigned way) { clock_.touch(stamps_[way]); }
    void fill(unsigned way) { clock_.fill(stamps_[way]); }

  private:
    UseClock clock_;
    std::vector<uint64_t> stamps_;
};

/**
 * Reference model: the replacement array as an explicit order list per
 * set (front = next victim, back = most recently used), the form the
 * paper describes and the simulator kept before the use stamps.
 */
class OrderListSet
{
  public:
    OrderListSet(unsigned ways, ReplPolicy policy, Rng *rng)
        : order_(ways), policy_(policy), rng_(rng)
    {
        std::iota(order_.begin(), order_.end(), 0u);
    }

    unsigned
    victim()
    {
        if (policy_ == ReplPolicy::Random)
            return static_cast<unsigned>(rng_->below(order_.size()));
        return order_.front();
    }
    void
    touch(unsigned way)
    {
        if (policy_ == ReplPolicy::LRU)
            moveToMru(way);
    }
    void
    fill(unsigned way)
    {
        if (policy_ != ReplPolicy::Random)
            moveToMru(way);
    }

  private:
    void
    moveToMru(unsigned way)
    {
        order_.erase(std::find(order_.begin(), order_.end(), way));
        order_.push_back(way);
    }

    std::vector<unsigned> order_;
    ReplPolicy policy_;
    Rng *rng_;
};

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    StampedSet set(4, ReplPolicy::LRU, nullptr);
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
    StampedSet set(3, ReplPolicy::FIFO, nullptr);
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
    StampedSet set(4, ReplPolicy::Random, &rng);
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
    EXPECT_THROW(UseClock(ReplPolicy::Random, nullptr), PanicError);
}

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::FIFO), "fifo");
    EXPECT_STREQ(replPolicyName(ReplPolicy::Random), "random");
}

TEST(Replacement, StampsNameTheOrderListsVictim)
{
    // Drive both forms through the structures' protocol — a hit
    // touches a valid way, a miss fills the lowest invalid way or else
    // the victim, invalidation leaves the replacement state alone —
    // and ask for the victim at random points, full set or not. Random
    // draws from two generators with one seed, so the draws line up.
    const ReplPolicy policies[] = {ReplPolicy::LRU, ReplPolicy::FIFO,
                                   ReplPolicy::Random};
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 9u, 384u}) {
        for (ReplPolicy policy : policies) {
            SCOPED_TRACE(testing::Message()
                         << ways << " ways, " << replPolicyName(policy));
            Rng ops(ways * 31 + static_cast<unsigned>(policy));
            Rng ref_rng(11), stamp_rng(11);
            OrderListSet ref(ways, policy, &ref_rng);
            StampedSet stamped(ways, policy, &stamp_rng);
            std::vector<bool> valid(ways, false);
            unsigned full_victims = 0;
            for (int step = 0; step < 20000; ++step) {
                unsigned way = static_cast<unsigned>(ops.below(ways));
                uint64_t op = ops.below(100);
                if (op < 50) {
                    if (valid[way]) {
                        ref.touch(way);
                        stamped.touch(way);
                    }
                } else if (op < 80) {
                    auto invalid = std::find(valid.begin(), valid.end(),
                                             false);
                    unsigned target;
                    if (invalid != valid.end()) {
                        target = static_cast<unsigned>(
                            invalid - valid.begin());
                    } else {
                        target = ref.victim();
                        ASSERT_EQ(stamped.victim(), target);
                        ++full_victims;
                    }
                    ref.fill(target);
                    stamped.fill(target);
                    valid[target] = true;
                } else if (op < 85) {
                    valid[way] = false;
                } else {
                    ASSERT_EQ(stamped.victim(), ref.victim());
                }
            }
            EXPECT_GT(full_victims, 1000u);
        }
    }
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
