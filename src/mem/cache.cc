#include "mem/cache.hh"

#include <bit>

#include "support/logging.hh"

namespace uhm
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config), rng_(config.seed), repl_(config.policy, &rng_)
{
    // Geometry comes from user configuration (CLI flags, wire fields):
    // an impossible one is a user error, not a simulator bug.
    checkLimit("cache", config.capacityBytes, maxBufferBytes, "byte");
    if (config.lineBytes < 1)
        fatal("cache line size must be positive");
    if (config.capacityBytes < config.lineBytes)
        fatal("cache of %llu bytes is smaller than one %llu-byte line",
              static_cast<unsigned long long>(config.capacityBytes),
              static_cast<unsigned long long>(config.lineBytes));
    uint64_t num_lines = config.capacityBytes / config.lineBytes;
    uhm_assert(num_lines >= 1, "no lines");

    assoc_ = config.assoc == 0 ? static_cast<unsigned>(num_lines) :
        config.assoc;
    if (assoc_ > num_lines)
        fatal("cache associativity %u exceeds its %llu lines", assoc_,
              static_cast<unsigned long long>(num_lines));
    checkLimit("cache", assoc_, maxWays, "way");
    numSets_ = num_lines / assoc_;
    uhm_assert(numSets_ >= 1, "no sets");
    pow2_ = std::has_single_bit(config.lineBytes) &&
        std::has_single_bit(numSets_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config.lineBytes));
    if (numSets_ * assoc_ > UINT32_MAX)
        fatal("cache has too many lines (%llu)",
              static_cast<unsigned long long>(numSets_ * assoc_));

    lines_.assign(numSets_ * assoc_, Line{});
}

uint32_t
SetAssocCache::fill(uint64_t base, uint64_t line_addr)
{
    // Prefer an invalid way, else evict the policy's victim.
    Line *set_lines = &lines_[base];
    unsigned occupancy = 0;
    unsigned way = repl_.fillWay(
        assoc_,
        [&](unsigned w) { return set_lines[w].addr != invalidAddr; },
        [&](unsigned w) { return set_lines[w].stamp; }, occupancy);
    set_lines[way].addr = line_addr;
    repl_.fill(set_lines[way].stamp);
    ++misses_;
    return static_cast<uint32_t>(base + way);
}

void
SetAssocCache::flush()
{
    for (Line &line : lines_)
        line.addr = invalidAddr;
}

} // namespace uhm
