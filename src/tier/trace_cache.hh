/**
 * @file
 * The trace cache: a set-associative store of compiled tier-2 traces,
 * organized like the DTB one level up.
 *
 * Same shape as core/dtb.hh — an associative tag array over DIR bit
 * addresses (trace heads), per-set recency replacement, and a
 * buffer-array capacity accounted in fixed allocation units — but the
 * payload is a whole compiled trace rather than one instruction's
 * translation. The per-entry bookkeeping block is the shared EntryMeta
 * (core/entry_meta.hh) rather than a second hand-rolled copy.
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

#include "core/entry_meta.hh"
#include "mem/replacement.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "support/rng.hh"
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
class TraceCache
{
  public:
    explicit TraceCache(const TraceCacheConfig &config);

    /**
     * Present @p head to the tag array: hash to a set, search, update
     * recency. Counts a hit or a miss. The returned trace is valid
     * until the next insert/invalidate.
     */
    const Trace *lookup(uint64_t head);

    /** The resident trace for @p head, or null. No accounting. */
    const Trace *find(uint64_t head) const;

    /**
     * Locate the resident trace for @p head and report its entry index
     * and content generation (EntryMeta::gen) so the fast dispatch path
     * can key a lowered run image to this residency. No accounting —
     * callers pair it with the lookup() that just hit. @return false
     * when @p head is not resident.
     */
    bool refOf(uint64_t head, uint32_t &idx_out,
               uint32_t &gen_out) const;

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
     * Install @p trace, keyed by its head. When the set is full the
     * replacement victim is evicted — unless the unit budget (counting
     * what the victim would release) still cannot cover the trace, in
     * which case the insert is rejected and the victim survives.
     */
    InsertOutcome insert(Trace trace);

    /**
     * Remove the trace anchored at @p head (its anchoring DTB entry was
     * evicted). @return true when a trace was actually removed.
     */
    bool invalidate(uint64_t head);

    /** Remove every trace (program image replaced / machine reset). */
    void invalidateAll();

    /**
     * Select the address space subsequent lookups, inserts and
     * invalidations run in (mirrors Dtb::setAsid; EntryMeta::asid is
     * the shared tag-extension). Single-tenant machines leave it 0.
     */
    void setAsid(uint32_t asid) { asid_ = asid; }

    /** The current address-space ID. */
    uint32_t asid() const { return asid_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }

    /** Hit ratio so far (the tier's h_T lookup term); 1.0 untouched. */
    double
    hitRatio() const
    {
        uint64_t total = hits_.value() + misses_.value();
        return total == 0 ? 1.0 :
            static_cast<double>(hits_.value()) /
            static_cast<double>(total);
    }

    uint64_t numEntries() const { return numEntries_; }
    uint64_t numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    uint64_t unitsTotal() const { return unitsTotal_; }
    uint64_t unitsUsed() const { return unitsUsed_; }

    /**
     * Valid traces per set, numSets() elements in set order. A fresh
     * snapshot per call — for the interval sampler and tests only.
     */
    std::vector<uint32_t> setOccupancy() const;

    /**
     * Publish counters into @p registry under "<prefix>.hits",
     * "<prefix>.misses", "<prefix>.inserts", "<prefix>.evictions",
     * "<prefix>.rejects", "<prefix>.invalidations".
     */
    void registerCounters(obs::Registry &registry,
                          const std::string &prefix) const;

    /** Reset all counters (contents retained). */
    void resetStats();

    const TraceCacheConfig &config() const { return config_; }

  private:
    struct Entry
    {
        /** Shared bookkeeping block (core/entry_meta.hh). */
        EntryMeta meta;
        Trace trace;
    };

    uint64_t setOf(uint64_t head) const;
    Entry *findEntry(uint64_t head);
    void evict(Entry &entry);

    TraceCacheConfig config_;
    uint64_t numEntries_;
    uint64_t numSets_;
    unsigned assoc_;
    uint64_t unitsTotal_;
    uint64_t unitsUsed_ = 0;
    /** Current address-space ID (0 for single-tenant machines). */
    uint32_t asid_ = 0;
    Rng rng_;
    /** Per-set recency, as EntryMeta::stamp per entry. */
    UseClock repl_;
    /** entries_[set * assoc_ + way]. */
    std::vector<Entry> entries_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter inserts_;
    obs::Counter evictions_;
    obs::Counter rejects_;
    obs::Counter invalidations_;
};

} // namespace uhm::tier

#endif // UHM_TIER_TRACE_CACHE_HH
