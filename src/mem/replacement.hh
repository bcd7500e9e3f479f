/**
 * @file
 * Replacement policies for set-associative structures.
 *
 * The paper's DTB keeps a "replacement array" that "keeps track of the
 * ordering of each set by recency of use" (section 5.2) — i.e. per-set
 * LRU. ReplacementSet implements that, plus FIFO and random policies for
 * the ablation benches.
 *
 * For the common narrow sets (<= 8 ways) the recency order lives in one
 * packed uint64 — byte 0 is the next victim, the highest used byte the
 * most recently used way — so the per-hit reorder on the fast dispatch
 * loops is a handful of register shifts instead of a vector shuffle.
 * Wider (e.g. fully associative) sets fall back to a vector. Both
 * representations produce the identical ordering sequence.
 */

#ifndef UHM_MEM_REPLACEMENT_HH
#define UHM_MEM_REPLACEMENT_HH

#include <cstdint>
#include <vector>

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
const char *replPolicyName(ReplPolicy policy);

/** Recency/insertion bookkeeping for the ways of one set. */
class ReplacementSet
{
  public:
    /**
     * @param ways number of ways in the set
     * @param policy replacement policy
     * @param rng generator for the Random policy (may be null otherwise)
     */
    ReplacementSet(unsigned ways, ReplPolicy policy, Rng *rng);

    /** The way to evict next. */
    unsigned
    victim()
    {
        if (policy_ == ReplPolicy::Random)
            return static_cast<unsigned>(rng_->below(ways_));
        if (packed_)
            return static_cast<unsigned>(order64_ & 0xff);
        return order_.front();
    }

    /**
     * Record a use of @p way (hit). Inline: this sits on the per-step
     * hot path of the fast dispatch loops, where the
     * already-most-recently-used case dominates.
     */
    void
    touch(unsigned way)
    {
        if (policy_ != ReplPolicy::LRU)
            return; // FIFO and Random ignore hits.
        moveToMru(way);
    }

    /**
     * Record installation of fresh contents into @p way. Inline: a
     * first-level buffer fills a way on every promotion.
     */
    void
    fill(unsigned way)
    {
        if (policy_ == ReplPolicy::Random)
            return;
        moveToMru(way);
    }

  private:
    /** Make @p way the most recently used (the next victim last). */
    void
    moveToMru(unsigned way)
    {
        if (packed_) {
            unsigned mru = 8 * (ways_ - 1);
            if (((order64_ >> mru) & 0xff) == way)
                return; // already most recently used
            order64_ = packedRemove(way);
            order64_ = (order64_ & ~(0xffull << mru)) |
                (static_cast<uint64_t>(way) << mru);
            return;
        }
        if (order_.back() == way)
            return;
        touchSlow(way);
    }

    /** moveToMru() for a vector set whose MRU is another way. */
    void touchSlow(unsigned way);

    /**
     * order64_ with @p way's byte removed and the bytes above it
     * shifted down one position; the vacated top is left for the
     * caller to fill. Unused high bytes hold 0xff (never a way id).
     */
    uint64_t
    packedRemove(unsigned way) const
    {
        // Locate way's byte with the zero-byte trick.
        uint64_t x = order64_ ^ (0x0101010101010101ull * way);
        uint64_t m = (x - 0x0101010101010101ull) & ~x &
            0x8080808080808080ull;
        uhm_assert(m != 0, "unknown way %u", way);
        unsigned p = static_cast<unsigned>(__builtin_ctzll(m)) >> 3;
        uint64_t low = order64_ & ((1ull << (8 * p)) - 1);
        uint64_t high = p == 7 ? 0 : order64_ >> (8 * (p + 1));
        return low | (high << (8 * p)) | (0xffull << 56);
    }

    /** order_[0] / byte 0 is the next victim; back/top is MRU. */
    std::vector<unsigned> order_;
    uint64_t order64_ = 0;
    unsigned ways_;
    bool packed_;
    ReplPolicy policy_;
    Rng *rng_;
};

} // namespace uhm

#endif // UHM_MEM_REPLACEMENT_HH
