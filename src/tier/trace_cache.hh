/**
 * @file
 * The trace cache: a set-associative store of compiled tier-2 traces,
 * organized like the DTB one level up.
 *
 * Same shape as core/dtb.hh — an associative tag array over DIR bit
 * addresses (trace heads), per-set recency replacement, and a
 * buffer-array capacity accounted in fixed allocation units — but the
 * payload is a whole compiled trace rather than one instruction's
 * translation. The tag, address and replacement arrays are the DTB's
 * own AssocArray (core/assoc_array.hh): one set hash, one probe
 * (probeIdx), one commit (hitAt/countMiss), so a trace dispatch probes
 * its set once and hands the committed index to the run loop. The
 * trace cache adds only its unit budget, same-head re-installation
 * and invalidation.
 *
 * Capacity is a global unit budget: a trace needing more units than the
 * free pool plus what its victim would release is simply not retained
 * (the loop still runs through the ordinary DTB path), mirroring the
 * DTB's reject-preserves-the-resident-victim discipline.
 */

#ifndef UHM_TIER_TRACE_CACHE_HH
#define UHM_TIER_TRACE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/assoc_array.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "tier/trace.hh"

namespace uhm::tier
{

/** Trace-cache geometry and policy. */
struct TraceCacheConfig
{
    /** Buffer capacity in bytes. */
    uint64_t capacityBytes = 8192;
    /** Unit of allocation, in short instructions. */
    unsigned unitShortInstrs = 32;
    /** Associativity of the tag array; 0 = fully associative. */
    unsigned assoc = 4;
    ReplPolicy policy = ReplPolicy::LRU;
    /** Seed for the Random replacement policy. */
    uint64_t seed = 19;
};

/** Set-associative cache of compiled traces, keyed by head address. */
class TraceCache : public AssocArray<Trace>
{
  public:
    explicit TraceCache(const TraceCacheConfig &config);

    /** What TraceCache::insert did. */
    struct InsertOutcome
    {
        /** The trace is now resident. */
        bool retained = false;
        /** A resident trace was destroyed to make room. */
        bool evicted = false;
        /** Head of the destroyed trace (when evicted). */
        uint64_t victimHead = 0;
        /** Allocation units the new trace needs. */
        unsigned unitsNeeded = 1;
    };

    /**
     * Install @p trace, keyed by its head. A resident trace with the
     * same head is always its own victim (re-installation replaces
     * it); otherwise the set's first invalid way, else the replacement
     * victim. The insert is rejected, and the victim survives, when the
     * unit budget (counting what the victim would release) still
     * cannot cover the trace.
     */
    InsertOutcome insert(Trace trace);

    /**
     * Remove the trace anchored at @p head (its anchoring DTB entry was
     * evicted). @return true when a trace was actually removed.
     */
    bool invalidate(uint64_t head);

    /** Remove every trace (program image replaced / machine reset). */
    void invalidateAll();

    /** Allocation units the resident traces occupy. */
    uint64_t unitsUsed() const { return unitsUsed_; }

    /**
     * Publish counters into @p registry under "<prefix>.hits",
     * "<prefix>.misses", "<prefix>.inserts", "<prefix>.evictions",
     * "<prefix>.rejects", "<prefix>.invalidations".
     */
    void registerCounters(obs::Registry &registry,
                          const std::string &prefix) const;

    /** Start a stats epoch (contents retained). */
    void resetStats();

    const TraceCacheConfig &config() const { return config_; }

  private:
    /** Release entry @p idx's units and invalidate it. */
    void evict(uint32_t idx);

    TraceCacheConfig config_;
    uint64_t unitsTotal_;
    uint64_t unitsUsed_ = 0;
    obs::Counter invalidations_;
};

} // namespace uhm::tier

#endif // UHM_TIER_TRACE_CACHE_HH
