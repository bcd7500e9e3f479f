/**
 * @file
 * A generic set-associative cache model.
 *
 * Used as the instruction cache of the T3 baseline machine ("a UHM
 * equipped with a cache", section 7): a transparent buffer over the
 * level-2 memory holding recently fetched DIR image lines. Tag-only —
 * the model tracks hits and misses; the machine charges tauD on hits and
 * tau2 on misses exactly as the paper's T3 expression does.
 */

#ifndef UHM_MEM_CACHE_HH
#define UHM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/replacement.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "support/rng.hh"

namespace uhm
{

/** Cache geometry and policy. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    uint64_t capacityBytes = 4096;
    /** Line size in bytes. */
    uint64_t lineBytes = 8;
    /** Ways per set; 0 means fully associative. */
    unsigned assoc = 4;
    ReplPolicy policy = ReplPolicy::LRU;
    /** Seed for the Random policy. */
    uint64_t seed = 1;
};

/** Tag-only set-associative cache with pluggable replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Access the byte at @p byte_addr; install its line on a miss.
     * @return true on hit
     */
    bool access(uint64_t byte_addr);

    /** Invalidate everything. */
    void flush();

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }

    /** Hit ratio so far (1.0 when no accesses yet). */
    double
    hitRatio() const
    {
        uint64_t total = hits_.value() + misses_.value();
        return total == 0 ? 1.0 :
            static_cast<double>(hits_.value()) /
            static_cast<double>(total);
    }

    /** Publish "<prefix>.hits" / "<prefix>.misses" into @p registry. */
    void
    registerCounters(obs::Registry &registry,
                     const std::string &prefix) const
    {
        registry.add(obs::joinName(prefix, "hits"), hits_);
        registry.add(obs::joinName(prefix, "misses"), misses_);
    }

    /** Number of sets. */
    uint64_t numSets() const { return numSets_; }

    /** Ways per set. */
    unsigned assoc() const { return assoc_; }

    const CacheConfig &config() const { return config_; }

    /** Reset hit/miss counters (contents retained). */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        /** Replacement use stamp (mem/replacement.hh). */
        uint64_t stamp = 0;
        bool valid = false;
    };

    CacheConfig config_;
    uint64_t numSets_;
    unsigned assoc_;
    /** lineBytes and numSets_ are powers of two: access() shifts by
     *  lineShift_/setShift_ instead of dividing. */
    bool pow2_;
    unsigned lineShift_;
    unsigned setShift_;
    Rng rng_;
    UseClock repl_;
    /** lines_[set * assoc_ + way]. */
    std::vector<Line> lines_;
    obs::Counter hits_;
    obs::Counter misses_;
};

} // namespace uhm

#endif // UHM_MEM_CACHE_HH
