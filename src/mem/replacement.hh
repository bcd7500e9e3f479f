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
 * Every user also prefers an invalid way and consults victim() only
 * when the whole set is valid — every way then carries the stamp of
 * its last fill or hit — so flushes and invalidations never need to
 * touch a stamp.
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
     * The way of a @p ways-way set to evict next; @p stamp_of(w) is
     * way w's stamp. Random draws rng->below(ways) instead.
     */
    template <typename StampOf>
    unsigned
    victim(unsigned ways, StampOf stamp_of)
    {
        if (policy_ == ReplPolicy::Random)
            return static_cast<unsigned>(rng_->below(ways));
        unsigned oldest = 0;
        uint64_t oldest_stamp = stamp_of(0u);
        for (unsigned w = 1; w < ways; ++w) {
            uint64_t s = stamp_of(w);
            if (s < oldest_stamp) {
                oldest = w;
                oldest_stamp = s;
            }
        }
        return oldest;
    }

  private:
    uint64_t clock_ = 0;
    ReplPolicy policy_;
    Rng *rng_;
};

} // namespace uhm

#endif // UHM_MEM_REPLACEMENT_HH
