/**
 * @file
 * Tests for the memory substrate: two-level main memory, replacement
 * policies, the set-associative cache, and the replacement decisions
 * of the DTB's insert, checked against reference copies of the
 * set scans they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/dtb.hh"
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

/**
 * The victim scan UseClock kept before UseClock::fillWay: a
 * rng->below(ways) draw under Random, else the lowest stamp, ties to
 * the lowest way. The reference models below select with it.
 */
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

/** One set's ways under a UseClock: a stamp per way, as the
 *  structures keep them in their entries. */
class StampedSet
{
  public:
    StampedSet(unsigned ways, ReplPolicy policy, Rng *rng)
        : clock_(policy, rng), stamps_(ways, 0)
    {}

    /** The way an insertion fills when ways @p valid are valid. */
    unsigned
    fillWay(const std::vector<bool> &valid)
    {
        unsigned occupancy = 0;
        return clock_.fillWay(
            static_cast<unsigned>(stamps_.size()),
            [&](unsigned w) { return static_cast<bool>(valid[w]); },
            [&](unsigned w) { return stamps_[w]; }, occupancy);
    }
    /** The victim of the set were every way valid. */
    unsigned
    victim()
    {
        return fillWay(std::vector<bool>(stamps_.size(), true));
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
                        ++full_victims;
                    }
                    ASSERT_EQ(stamped.fillWay(valid), target);
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

TEST(Cache, WaysAboveTheLimitAreFatal)
{
    // 1024 lines of 8 bytes in one set is the widest cache built.
    CacheConfig cfg;
    cfg.capacityBytes = 8192;
    cfg.assoc = 0;
    EXPECT_EQ(SetAssocCache{cfg}.assoc(), maxWays);
    cfg.capacityBytes = 8200;
    EXPECT_THROW(SetAssocCache{cfg}, FatalError);
    cfg.capacityBytes = maxBufferBytes;
    EXPECT_THROW(SetAssocCache{cfg}, FatalError);
    cfg.assoc = 1025;
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

// ---- reference models for the one-pass fills --------------------------------

/**
 * Reference icache: the tag-only cache as SetAssocCache::access scanned
 * it before line hints and the one-pass fill — a tag per line, a hit
 * scan over the set, then a second scan for the first invalid way, and
 * referenceVictim() only when the set is full.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed), repl_(cfg.policy, &rng_)
    {
        uint64_t num_lines = cfg.capacityBytes / cfg.lineBytes;
        assoc_ = cfg.assoc == 0 ? static_cast<unsigned>(num_lines) :
            cfg.assoc;
        numSets_ = num_lines / assoc_;
        lines_.assign(numSets_ * assoc_, Line{});
    }

    bool
    access(uint64_t byte_addr)
    {
        uint64_t line_addr = byte_addr / cfg_.lineBytes;
        uint64_t set = line_addr % numSets_;
        uint64_t tag = line_addr / numSets_;
        Line *set_lines = &lines_[set * assoc_];
        for (unsigned way = 0; way < assoc_; ++way) {
            if (set_lines[way].valid && set_lines[way].tag == tag) {
                repl_.touch(set_lines[way].stamp);
                ++hits;
                return true;
            }
        }
        unsigned victim = assoc_;
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!set_lines[way].valid) {
                victim = way;
                break;
            }
        }
        if (victim == assoc_)
            victim = referenceVictim(
                cfg_.policy, rng_, assoc_,
                [&](unsigned w) { return set_lines[w].stamp; });
        set_lines[victim].tag = tag;
        set_lines[victim].valid = true;
        repl_.fill(set_lines[victim].stamp);
        ++misses;
        return false;
    }

    void
    flush()
    {
        for (Line &line : lines_)
            line.valid = false;
    }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t stamp = 0;
        bool valid = false;
    };

    CacheConfig cfg_;
    unsigned assoc_;
    uint64_t numSets_;
    Rng rng_;
    UseClock repl_;
    std::vector<Line> lines_;
};

TEST(Cache, HintedAccessMatchesThePlainScan)
{
    // Probe a cache through line hints kept per probe site — the way
    // the Cached fast loop keeps one per fetched instruction — and a
    // reference copy of the plain scan with the same accesses. Sites
    // share addresses and addresses move between sites, so hints go
    // stale in every way a hint can: the line was evicted, refilled
    // into another way, flushed, or the hint names another set.
    struct Geometry
    {
        uint64_t capacity, line;
        unsigned assoc;
    };
    const Geometry geometries[] = {
        {64, 8, 1},   {64, 8, 2},   {256, 8, 4}, {64, 8, 0},
        {96, 8, 4},   {72, 12, 2},  {120, 8, 5}, {96, 12, 0},
        {128, 16, 8}, {40, 8, 1},
    };
    const ReplPolicy policies[] = {ReplPolicy::LRU, ReplPolicy::FIFO,
                                   ReplPolicy::Random};
    for (const Geometry &g : geometries) {
        for (ReplPolicy policy : policies) {
            CacheConfig cfg;
            cfg.capacityBytes = g.capacity;
            cfg.lineBytes = g.line;
            cfg.assoc = g.assoc;
            cfg.policy = policy;
            cfg.seed = 5;
            SCOPED_TRACE(testing::Message()
                         << g.capacity << "B/" << g.line << "B lines, "
                         << g.assoc << " ways, "
                         << replPolicyName(policy));
            SetAssocCache cache(cfg);
            RefCache ref(cfg);
            Rng ops(g.capacity * 7 + g.line + g.assoc +
                    static_cast<unsigned>(policy));
            // Three times the capacity in 8-byte words: hits, conflict
            // misses and capacity misses all happen. Each site mostly
            // probes its own word, and now and then moves to another.
            uint64_t words = 3 * g.capacity / 8;
            std::vector<uint32_t> hints(16, 0);
            std::vector<uint64_t> site_word(hints.size());
            for (uint64_t &w : site_word)
                w = ops.below(words);
            for (int step = 0; step < 20000; ++step) {
                uint64_t op = ops.below(1000);
                size_t site = ops.below(hints.size());
                if (op < 3) {
                    cache.flush();
                    ref.flush();
                    continue;
                }
                if (op < 20)
                    site_word[site] = ops.below(words);
                uint64_t byte = op < 100 ? ops.below(words) * 8 :
                    site_word[site] * 8;
                if (op < 200) {
                    ASSERT_EQ(cache.access(byte), ref.access(byte))
                        << "plain access, step " << step;
                } else {
                    uint32_t &hint = hints[site];
                    ASSERT_EQ(cache.access(byte, hint), ref.access(byte))
                        << "hinted access, step " << step;
                    ASSERT_LT(hint, cache.numSets() * cache.assoc());
                }
                ASSERT_EQ(cache.hits(), ref.hits);
                ASSERT_EQ(cache.misses(), ref.misses);
            }
            EXPECT_GT(ref.hits, 1000u);
            EXPECT_GT(ref.misses, 1000u);
        }
    }
}

/**
 * Reference DTB allocation: Dtb::insert as it was before the one-pass
 * fill — a scan that counts the set and remembers its first invalid
 * way, referenceVictim() only when the set is full, the overflow
 * reservation before the eviction, and the eviction through a separate
 * release. Lookups, hitAt and flushes carry the same bookkeeping, so a
 * twin Dtb can be compared step by step. Set selection is the twin's
 * own setOf(): the hash is not under test here.
 */
class RefDtb
{
  public:
    RefDtb(const DtbConfig &cfg, const Dtb &twin)
        : cfg_(cfg), twin_(twin), rng_(cfg.seed),
          repl_(cfg.policy, &rng_), assoc_(twin.assoc()),
          overflowFree_(twin.overflowTotal()),
          entries_(twin.numEntries())
    {}

    Dtb::InsertOutcome
    insert(uint64_t dir_addr, const std::vector<ShortInstr> &code,
           uint64_t now)
    {
        const uint64_t unit = cfg_.unitShortInstrs;
        unsigned units_needed = code.size() <= unit ? 1 :
            static_cast<unsigned>((code.size() + unit - 1) / unit);
        unsigned overflow_needed = units_needed - 1;
        Dtb::InsertOutcome out;
        out.unitsNeeded = units_needed;
        if (overflow_needed > 0 && !cfg_.allowOverflow) {
            ++rejects;
            return out;
        }
        uint64_t set = twin_.setOf(dir_addr);
        Entry *set_entries = &entries_[set * assoc_];
        unsigned way = assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set_entries[w].meta.valid)
                ++out.setOccupancy;
            else if (way == assoc_)
                way = w;
        }
        Entry *victim = nullptr;
        if (way == assoc_) {
            way = referenceVictim(cfg_.policy, rng_, assoc_,
                                  [&](unsigned w) {
                                      return set_entries[w].meta.stamp;
                                  });
            victim = &set_entries[way];
        }
        uint64_t victim_release =
            victim && victim->meta.valid && victim->meta.units > 1 ?
            victim->meta.units - 1 : 0;
        if (overflow_needed > overflowFree_ + victim_release) {
            ++rejects;
            return out;
        }
        if (victim) {
            out.evicted = victim->meta.valid;
            out.victimTag = victim->meta.tag;
            out.victimAsid = victim->meta.asid;
            out.victimUses = victim->meta.useCount;
            if (now > victim->meta.insertCycle)
                out.victimResidency = now - victim->meta.insertCycle;
            evict(*victim);
            ++evictions;
        }
        overflowFree_ -= overflow_needed;
        Entry &e = set_entries[way];
        e.meta.reset();
        e.meta.tag = dir_addr;
        e.meta.asid = asid_;
        e.meta.valid = true;
        e.meta.units = units_needed;
        e.meta.insertCycle = now;
        e.code = code;
        repl_.fill(e.meta.stamp);
        ++inserts;
        out.retained = true;
        out.entryIdx = static_cast<uint32_t>(set * assoc_ + way);
        return out;
    }

    /** Entry index a lookup would hit, or UINT32_MAX. No accounting. */
    uint32_t
    probeIdx(uint64_t dir_addr) const
    {
        uint64_t set = twin_.setOf(dir_addr);
        for (unsigned w = 0; w < assoc_; ++w) {
            const EntryMeta &m = entries_[set * assoc_ + w].meta;
            if (m.valid && m.tag == dir_addr && m.asid == asid_)
                return static_cast<uint32_t>(set * assoc_ + w);
        }
        return UINT32_MAX;
    }

    /** lookup(): the hit's entry index, or UINT32_MAX on a miss. */
    uint32_t
    lookup(uint64_t dir_addr)
    {
        uint32_t idx = probeIdx(dir_addr);
        if (idx == UINT32_MAX)
            ++misses;
        else
            hitAt(idx);
        return idx;
    }

    void
    hitAt(uint32_t idx)
    {
        repl_.touch(entries_[idx].meta.stamp);
        ++hits;
        ++entries_[idx].meta.useCount;
    }

    void
    invalidateAll()
    {
        for (Entry &e : entries_)
            evict(e);
    }

    /** flush(now): the victims' tags, in entry order. */
    std::vector<uint64_t>
    flush()
    {
        std::vector<uint64_t> tags;
        for (Entry &e : entries_) {
            if (e.meta.valid) {
                tags.push_back(e.meta.tag);
                evict(e);
            }
        }
        return tags;
    }

    void setAsid(uint32_t asid) { asid_ = asid; }
    uint64_t overflowFree() const { return overflowFree_; }
    const std::vector<ShortInstr> &
    codeAt(uint32_t idx) const
    {
        return entries_[idx].code;
    }

    uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0,
             rejects = 0;

  private:
    struct Entry
    {
        EntryMeta meta;
        std::vector<ShortInstr> code;
    };

    void
    evict(Entry &entry)
    {
        if (entry.meta.valid && entry.meta.units > 1)
            overflowFree_ += entry.meta.units - 1;
        entry.meta.reset();
        entry.code.clear();
    }

    DtbConfig cfg_;
    const Dtb &twin_;
    Rng rng_;
    UseClock repl_;
    unsigned assoc_;
    uint32_t asid_ = 0;
    uint64_t overflowFree_;
    std::vector<Entry> entries_;
};

void
expectSameOutcome(const Dtb::InsertOutcome &got,
                  const Dtb::InsertOutcome &want, int step)
{
    ASSERT_EQ(got.retained, want.retained) << "step " << step;
    ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
    ASSERT_EQ(got.unitsNeeded, want.unitsNeeded) << "step " << step;
    ASSERT_EQ(got.setOccupancy, want.setOccupancy) << "step " << step;
    if (want.evicted) {
        ASSERT_EQ(got.victimTag, want.victimTag) << "step " << step;
        ASSERT_EQ(got.victimAsid, want.victimAsid) << "step " << step;
        ASSERT_EQ(got.victimUses, want.victimUses) << "step " << step;
        ASSERT_EQ(got.victimResidency, want.victimResidency)
            << "step " << step;
    }
    if (want.retained) {
        ASSERT_EQ(got.entryIdx, want.entryIdx) << "step " << step;
    }
}

TEST(Dtb, InsertMatchesTheReferenceAllocation)
{
    // Twin DTBs under 20000 random inserts, lookups, hitAt commits,
    // invalidations and flushes. Translations run up to three units,
    // so overflow increments are taken, released by evictions and
    // exhausted (a reject that keeps its victim); without overflow,
    // every multi-unit translation is rejected.
    struct Shape
    {
        unsigned assoc;
        bool overflow;
        double fraction;
    };
    const Shape shapes[] = {
        {1, true, 0.25}, {2, true, 0.25}, {4, true, 0.1},
        {0, true, 0.25}, {4, false, 0.25}, {2, true, 0.05},
    };
    const ReplPolicy policies[] = {ReplPolicy::LRU, ReplPolicy::FIFO,
                                   ReplPolicy::Random};
    for (const Shape &shape : shapes) {
        for (ReplPolicy policy : policies) {
            DtbConfig cfg;
            cfg.capacityBytes = 512; // 48 entries + overflow by default
            cfg.unitShortInstrs = 4;
            cfg.assoc = shape.assoc;
            cfg.policy = policy;
            cfg.allowOverflow = shape.overflow;
            cfg.overflowFraction = shape.fraction;
            cfg.seed = 13;
            SCOPED_TRACE(testing::Message()
                         << shape.assoc << " ways, overflow "
                         << shape.overflow << " x" << shape.fraction
                         << ", " << replPolicyName(policy));
            Dtb dtb(cfg);
            RefDtb ref(cfg, dtb);
            Rng ops(shape.assoc * 97 + static_cast<unsigned>(policy) +
                    (shape.overflow ? 1000 : 0));
            // Twice the entry count in distinct DIR addresses.
            uint64_t addrs = 2 * dtb.numEntries();
            uint64_t rejects_seen = 0, evictions_seen = 0;
            for (int step = 0; step < 20000; ++step) {
                uint64_t addr = 64 * ops.below(addrs) + 3;
                uint64_t op = ops.below(1000);
                if (op < 450) {
                    // Most translations fit one unit, as in the
                    // machines; the rest take one or two increments.
                    size_t len = ops.below(4) != 0 ? 1 + ops.below(4) :
                        5 + ops.below(8);
                    std::vector<ShortInstr> code(len);
                    for (size_t k = 0; k < code.size(); ++k)
                        code[k].operand = static_cast<int64_t>(
                            addr + k);
                    Dtb::InsertOutcome want = ref.insert(addr, code, step);
                    Dtb::InsertOutcome got = dtb.insert(addr, code, step);
                    expectSameOutcome(got, want, step);
                    if (want.retained) {
                        ASSERT_EQ(dtb.payloadAt(got.entryIdx), code);
                    }
                    rejects_seen += !want.retained;
                    evictions_seen += want.evicted;
                } else if (op < 720) {
                    uint32_t want = ref.lookup(addr);
                    ASSERT_EQ(dtb.lookup(addr), want) << "step " << step;
                    if (want != UINT32_MAX) {
                        ASSERT_EQ(dtb.payloadAt(want), ref.codeAt(want));
                    }
                } else if (op < 970) {
                    uint32_t want = ref.probeIdx(addr);
                    ASSERT_EQ(dtb.probeIdx(addr), want) << "step " << step;
                    if (want != UINT32_MAX) {
                        ASSERT_TRUE(dtb.icCheck(want, addr));
                        ref.hitAt(want);
                        dtb.hitAt(want);
                    }
                } else if (op < 996) {
                    uint32_t asid = static_cast<uint32_t>(ops.below(2));
                    ref.setAsid(asid);
                    dtb.setAsid(asid);
                } else if (op < 998) {
                    std::vector<uint64_t> want = ref.flush();
                    std::vector<Dtb::FlushedEntry> got = dtb.flush(step);
                    ASSERT_EQ(got.size(), want.size()) << "step " << step;
                    for (size_t k = 0; k < want.size(); ++k) {
                        ASSERT_EQ(got[k].tag, want[k]);
                    }
                } else {
                    ref.invalidateAll();
                    dtb.invalidateAll();
                }
                ASSERT_EQ(dtb.hits(), ref.hits) << "step " << step;
                ASSERT_EQ(dtb.misses(), ref.misses) << "step " << step;
                ASSERT_EQ(dtb.inserts(), ref.inserts) << "step " << step;
                ASSERT_EQ(dtb.evictions(), ref.evictions)
                    << "step " << step;
                ASSERT_EQ(dtb.rejects(), ref.rejects) << "step " << step;
                ASSERT_EQ(dtb.overflowFree(), ref.overflowFree())
                    << "step " << step;
            }
            EXPECT_GT(evictions_seen, 1000u);
            EXPECT_GT(rejects_seen, 100u);
        }
    }
}

} // anonymous namespace
} // namespace uhm
