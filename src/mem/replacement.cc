#include "mem/replacement.hh"

#include <algorithm>
#include <numeric>

namespace uhm
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU:    return "lru";
      case ReplPolicy::FIFO:   return "fifo";
      case ReplPolicy::Random: return "random";
    }
    return "?";
}

ReplacementSet::ReplacementSet(unsigned ways, ReplPolicy policy, Rng *rng)
    : ways_(ways), packed_(ways <= 8), policy_(policy), rng_(rng)
{
    uhm_assert(ways >= 1, "a set needs at least one way");
    uhm_assert(policy != ReplPolicy::Random || rng,
               "random policy needs an rng");
    if (packed_) {
        order64_ = ~0ull;
        for (unsigned w = 0; w < ways; ++w) {
            order64_ &= ~(0xffull << (8 * w));
            order64_ |= static_cast<uint64_t>(w) << (8 * w);
        }
    } else {
        order_.resize(ways);
        std::iota(order_.begin(), order_.end(), 0);
    }
}

void
ReplacementSet::touchSlow(unsigned way)
{
    auto it = std::find(order_.begin(), order_.end(), way);
    uhm_assert(it != order_.end(), "unknown way %u", way);
    order_.erase(it);
    order_.push_back(way);
}

} // namespace uhm
