/**
 * @file
 * Replacement policies for set-associative structures.
 *
 * The paper's DTB keeps a "replacement array" that "keeps track of the
 * ordering of each set by recency of use" (section 5.2) — i.e. per-set
 * LRU. UseClock implements that, plus FIFO and random policies for the
 * ablation benches, as one use stamp per entry: the structure keeps one
 * clock, a hit under LRU sets the entry's stamp to ++clock, a fill does
 * the same under every policy, and the victim is the way of the set
 * with the lowest stamp (ties to the lowest way). The stamp lives in
 * the entry itself (EntryMeta, SetAssocCache's line), so a hit writes
 * into the line it just matched and touches no second array.
 *
 * The stamp order is exactly the order list the replacement array
 * describes: each fill or LRU hit moves one way to the most recently
 * used end, which is what a fresh highest stamp does, and a way never
 * filled sits at the victim end in way order, which is what stamp 0
 * with ties to the lowest way does. Invalidation changes neither.
 * Every insertion prefers an invalid way and reads stamps only when
 * the whole set is valid — every way then carries the stamp of its
 * last fill or hit — so flushes and invalidations never need to touch
 * a stamp (UseClock::fillWay).
 */

#ifndef UHM_MEM_REPLACEMENT_HH
#define UHM_MEM_REPLACEMENT_HH

#include <cstdint>

#include "support/logging.hh"
#include "support/rng.hh"

namespace uhm
{

/** Replacement policy selector. */
enum class ReplPolicy : uint8_t
{
    LRU,
    FIFO,
    Random,
};

/** Printable policy name. */
inline const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU:    return "lru";
      case ReplPolicy::FIFO:   return "fifo";
      case ReplPolicy::Random: return "random";
    }
    return "?";
}

/**
 * Largest buffer capacity, in bytes, a set-associative structure
 * accepts: the DTB, the first-level DTB, the icache and the trace
 * cache. Capacities come from outside (CLI flags, wire fields) and are
 * allocated before anything runs, so without a bound one request could
 * ask the host for tens of gigabytes. 1 MiB is the largest any
 * committed bench configures (bench_fig1_repr_space).
 */
inline constexpr uint64_t maxBufferBytes = uint64_t{1} << 20;

/**
 * Most ways per set the same structures accept. A probe scans its
 * whole set, so 98,304 ways (a full DTB at maxBufferBytes) make every
 * miss thousands of times dearer. The widest committed geometry has
 * 768.
 */
inline constexpr uint64_t maxWays = 1024;

/** Reject @p count of a @p unit above @p limit: "DTB of 98304 ways
 *  exceeds the 1024-way limit". */
inline void
checkLimit(const char *what, uint64_t count, uint64_t limit,
           const char *unit)
{
    if (count > limit)
        fatal("%s of %llu %ss exceeds the %llu-%s limit", what,
              static_cast<unsigned long long>(count), unit,
              static_cast<unsigned long long>(limit), unit);
}

/** The use clock of one set-associative structure. */
class UseClock
{
  public:
    /**
     * @param policy replacement policy
     * @param rng generator for the Random policy (may be null otherwise)
     */
    UseClock(ReplPolicy policy, Rng *rng) : policy_(policy), rng_(rng)
    {
        uhm_assert(policy != ReplPolicy::Random || rng,
                   "random policy needs an rng");
    }

    /** Record a hit on the entry owning @p stamp (LRU only). */
    void
    touch(uint64_t &stamp)
    {
        if (policy_ == ReplPolicy::LRU)
            stamp = ++clock_;
    }

    /** Record installation of fresh contents into @p stamp's entry. */
    void fill(uint64_t &stamp) { stamp = ++clock_; }

    /**
     * The way of a @p ways-way set an insertion fills: the first
     * invalid way, else the victim — the lowest stamp, ties to the
     * lowest way, under LRU and FIFO, and a rng->below(ways) draw
     * under Random, made only when the set is full. One pass with no
     * data-dependent branch: an invalid way keys 0 and a valid way
     * keys its stamp (every fill stamps ++clock >= 1), so the lowest
     * key is that choice. @p valid_of(w) and @p stamp_of(w) read way
     * w; @p occupancy receives the number of valid ways.
     */
    template <typename ValidOf, typename StampOf>
    unsigned
    fillWay(unsigned ways, ValidOf valid_of, StampOf stamp_of,
            unsigned &occupancy)
    {
        unsigned way = 0;
        unsigned valid = 0;
        uint64_t lowest = UINT64_MAX;
        for (unsigned w = 0; w < ways; ++w) {
            bool v = valid_of(w);
            uint64_t key = stamp_of(w) & (0 - static_cast<uint64_t>(v));
            valid += v;
            bool lower = key < lowest;
            way = lower ? w : way;
            lowest = lower ? key : lowest;
        }
        occupancy = valid;
        if (valid == ways && policy_ == ReplPolicy::Random)
            way = static_cast<unsigned>(rng_->below(ways));
        return way;
    }

  private:
    uint64_t clock_ = 0;
    ReplPolicy policy_;
    Rng *rng_;
};

} // namespace uhm

#endif // UHM_MEM_REPLACEMENT_HH
