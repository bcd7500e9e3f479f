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
    numSets_ = num_lines / assoc_;
    uhm_assert(numSets_ >= 1, "no sets");
    pow2_ = std::has_single_bit(config.lineBytes) &&
        std::has_single_bit(numSets_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(numSets_));

    lines_.assign(numSets_ * assoc_, Line{});
}

bool
SetAssocCache::access(uint64_t byte_addr)
{
    uint64_t line_addr, set, tag;
    if (pow2_) {
        // The Cached organization probes once per fetched image word;
        // power-of-two geometries (the default) skip the divides.
        line_addr = byte_addr >> lineShift_;
        set = line_addr & (numSets_ - 1);
        tag = line_addr >> setShift_;
    } else {
        line_addr = byte_addr / config_.lineBytes;
        set = line_addr % numSets_;
        tag = line_addr / numSets_;
    }

    Line *set_lines = &lines_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set_lines[way].valid && set_lines[way].tag == tag) {
            repl_.touch(set_lines[way].stamp);
            ++hits_;
            return true;
        }
    }

    // Miss: prefer an invalid way, else evict the policy's victim.
    unsigned victim = assoc_;
    for (unsigned way = 0; way < assoc_; ++way) {
        if (!set_lines[way].valid) {
            victim = way;
            break;
        }
    }
    if (victim == assoc_)
        victim = repl_.victim(
            assoc_, [&](unsigned w) { return set_lines[w].stamp; });

    set_lines[victim].tag = tag;
    set_lines[victim].valid = true;
    repl_.fill(set_lines[victim].stamp);
    ++misses_;
    return false;
}

void
SetAssocCache::flush()
{
    for (Line &line : lines_)
        line.valid = false;
}

} // namespace uhm
