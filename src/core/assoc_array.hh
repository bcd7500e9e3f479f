/**
 * @file
 * The associative array under the DTB and the tier-2 trace cache.
 *
 * Figure 2 gives the DTB an associative tag array, an address array, a
 * replacement array and a buffer array. The trace cache
 * (tier/trace_cache.hh) is the same organization one tier up, so the
 * first three parts live here once, over any payload:
 *
 *  - the tag array is EntryMeta (core/entry_meta.hh): tag, ASID,
 *    validity and the per-entry hotness state;
 *  - the address array is the entry index set * assoc + way, which
 *    probeIdx() returns and the fast dispatch path caches per site;
 *  - the replacement array is EntryMeta::stamp, driven by UseClock
 *    (mem/replacement.hh);
 *  - the payload is the owner's buffer-array contents (a PSDER
 *    translation, a compiled trace).
 *
 * Every access is a probe and a commit. probeIdx() hashes the tag to a
 * set and scans its ways with no side effect; icCheck() revalidates a
 * cached index the same way. hitAt() commits a hit (recency touch, one
 * hit, one use) and countMiss() a miss; nothing is counted or touched
 * until the caller commits.
 * Insertion is fillWay() (the first invalid way, else the policy's
 * victim) and fill() (the new entry's bookkeeping). What an owner does
 * between the two — reserving overflow increments or allocation units,
 * rejecting, reporting the victim — is its own policy.
 */

#ifndef UHM_CORE_ASSOC_ARRAY_HH
#define UHM_CORE_ASSOC_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/entry_meta.hh"
#include "mem/replacement.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace uhm
{

/** Shape of an associative array, validated by its owner. */
struct AssocGeometry
{
    /** Entries before trimming to whole sets. */
    uint64_t entries = 1;
    /** Ways per set (1 <= assoc <= entries). */
    unsigned assoc = 1;
    /**
     * Partitioned set allocation (DtbConfig::numPartitions): when >= 2
     * the set space is split into this many equal contiguous regions
     * and the current ASID hashes only within region asid % partitions.
     * 0 or 1 leaves the whole set space shared.
     */
    uint64_t partitions = 0;
};

/** Tag, address and replacement arrays over one payload per entry. */
template <typename Payload>
class AssocArray
{
  public:
    /** The index probeIdx() returns on a miss. */
    static constexpr uint32_t npos = UINT32_MAX;

    AssocArray(const AssocGeometry &geometry, ReplPolicy policy,
               uint64_t seed)
        : numSets_(geometry.entries / geometry.assoc),
          assoc_(geometry.assoc),
          numPartitions_(geometry.partitions <= 1 ? 1 :
                         geometry.partitions),
          rng_(seed), repl_(policy, &rng_)
    {
        uhm_assert(numSets_ >= 1 && numSets_ <= UINT32_MAX,
                   "associative array set count out of range");
        uhm_assert(numPartitions_ <= numSets_,
                   "more partitions than sets");
        setModM_ = UINT64_MAX / numSets_ + 1;
        setsPerPartition_ = numSets_ / numPartitions_;
        // Entries that do not fill a whole set are trimmed.
        entries_.assign(numSets_ * assoc_, Entry{});
    }

    /**
     * The entry a lookup of @p tag would hit right now, or npos. The
     * one tag scan. Pure probe: no counting, no recency update.
     */
    uint32_t
    probeIdx(uint64_t tag) const
    {
        uint64_t base = setOf(tag) * assoc_;
        const Entry *set = &entries_[base];
        for (unsigned way = 0; way < assoc_; ++way) {
            if (matches(set[way].meta, tag))
                return static_cast<uint32_t>(base + way);
        }
        return npos;
    }

    /**
     * Would a lookup of @p tag hit entry @p idx right now? Revalidates
     * an index cached from an earlier probe: any replacement of the
     * entry changes its tag or ASID, and EntryMeta::gen invalidates
     * state derived from its contents. Pure predicate.
     */
    bool
    icCheck(uint32_t idx, uint64_t tag) const
    {
        return matches(entries_[idx].meta, tag);
    }

    /** Commit a hit on entry @p idx: recency touch, one hit, one use. */
    void
    hitAt(uint32_t idx)
    {
        EntryMeta &m = entries_[idx].meta;
        repl_.touch(m.stamp);
        ++hits_;
        ++m.useCount;
    }

    /** Commit a miss (a probe found nothing; a miss touches no entry). */
    void countMiss() { ++misses_; }

    /** Bookkeeping block of entry @p idx. */
    EntryMeta &metaAt(uint32_t idx) { return entries_[idx].meta; }
    const EntryMeta &
    metaAt(uint32_t idx) const
    {
        return entries_[idx].meta;
    }

    /** Buffer-array contents of entry @p idx. */
    const Payload &
    payloadAt(uint32_t idx) const
    {
        return entries_[idx].payload;
    }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t inserts() const { return inserts_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t rejects() const { return rejects_.value(); }

    /** Hit ratio so far (h_D, or the tier's h_T); 1.0 untouched. */
    double
    hitRatio() const
    {
        uint64_t total = hits_.value() + misses_.value();
        return total == 0 ? 1.0 :
            static_cast<double>(hits_.value()) /
            static_cast<double>(total);
    }

    /** Entries in the address array (whole sets only). */
    uint64_t numEntries() const { return entries_.size(); }
    uint64_t numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /**
     * Valid entries per set, numSets() elements in set order. A fresh
     * snapshot per call — for the interval sampler and tests, not for
     * the dispatch path.
     */
    std::vector<uint32_t>
    setOccupancy() const
    {
        std::vector<uint32_t> occupancy(numSets_, 0);
        for (size_t i = 0; i < entries_.size(); ++i)
            occupancy[i / assoc_] += entries_[i].meta.valid;
        return occupancy;
    }

    /**
     * Publish "<prefix>.hits", "<prefix>.misses", "<prefix>.inserts",
     * "<prefix>.evictions" and "<prefix>.rejects".
     */
    void
    registerCounters(obs::Registry &registry,
                     const std::string &prefix) const
    {
        registry.add(prefix, "hits", hits_);
        registry.add(prefix, "misses", misses_);
        registry.add(prefix, "inserts", inserts_);
        registry.add(prefix, "evictions", evictions_);
        registry.add(prefix, "rejects", rejects_);
    }

    /**
     * Start a stats epoch: reset the counters and the per-entry
     * observability state (use counts, insert-cycle stamps), so
     * residency and use figures measured after it carry nothing from
     * before. Resident payloads and the behavioral state the tier reads
     * (backedge counters, anchor flags) are retained.
     */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
        inserts_.reset();
        evictions_.reset();
        rejects_.reset();
        for (Entry &e : entries_) {
            if (e.meta.valid) {
                e.meta.useCount = 0;
                e.meta.insertCycle = 0;
            }
        }
    }

  protected:
    /**
     * The set index @p tag hashes to: a multiplicative hash of the DIR
     * bit address ("the DIR instruction address is hashed to select a
     * unique set"). In partitioned mode the hash lands inside the
     * current ASID's region (the trailing numSets % partitions sets go
     * unused — the partitions stay equal-sized).
     */
    uint64_t
    setOf(uint64_t tag) const
    {
        uint64_t h = (tag * 0x9e3779b97f4a7c15ull) >> 32;
        if (numPartitions_ == 1) {
            // h % numSets_ without a divide (Lemire's direct remainder,
            // exact for 32-bit h and divisor).
            return static_cast<uint64_t>(
                (static_cast<unsigned __int128>(setModM_ * h) *
                 numSets_) >> 64);
        }
        return (asid_ % numPartitions_) * setsPerPartition_ +
            h % setsPerPartition_;
    }

    /**
     * Select the address space subsequent probes and fills run in.
     * Entries of other ASIDs stay resident (and, in shared-set mode,
     * remain eviction candidates) but never match.
     */
    void setAsid(uint32_t asid) { asid_ = asid; }

    /** The current address-space ID (0 for single-tenant machines). */
    uint32_t asid() const { return asid_; }

    /** Mutable payload of entry @p idx (the owner fills and clears). */
    Payload &payloadRef(uint32_t idx) { return entries_[idx].payload; }

    /**
     * The entry an insertion of @p tag fills: the set's first invalid
     * way, else the replacement policy's victim (UseClock::fillWay).
     * @p occupancy receives the set's valid ways. Nothing changes yet.
     */
    uint32_t
    fillWay(uint64_t tag, unsigned &occupancy)
    {
        const Entry *set = &entries_[setOf(tag) * assoc_];
        unsigned way = repl_.fillWay(
            assoc_, [&](unsigned w) { return set[w].meta.valid; },
            [&](unsigned w) { return set[w].meta.stamp; }, occupancy);
        return static_cast<uint32_t>((set - entries_.data()) + way);
    }

    /**
     * Make entry @p idx a fresh resident of the current ASID tagged
     * @p tag, occupying @p units buffer units, installed at cycle
     * @p now: a new generation, a fill stamp and one insert. The caller
     * has already released whatever the entry held.
     */
    EntryMeta &
    fill(uint32_t idx, uint64_t tag, unsigned units, uint64_t now)
    {
        EntryMeta &m = entries_[idx].meta;
        m.reset();
        m.tag = tag;
        m.asid = asid_;
        m.valid = true;
        m.units = units;
        m.insertCycle = now;
        repl_.fill(m.stamp);
        ++inserts_;
        return m;
    }

    obs::Counter evictions_;
    obs::Counter rejects_;

  private:
    struct Entry
    {
        EntryMeta meta;
        Payload payload;
    };

    /** Does @p m hold @p tag for the current ASID? */
    bool
    matches(const EntryMeta &m, uint64_t tag) const
    {
        return m.valid && m.tag == tag && m.asid == asid_;
    }

    uint64_t numSets_;
    /** ceil(2^64 / numSets_): the multiplier setOf() reduces by. */
    uint64_t setModM_;
    unsigned assoc_;
    /** Active partitions (1 = shared set space). */
    uint64_t numPartitions_;
    /** Sets per partition (numSets_ when unpartitioned). */
    uint64_t setsPerPartition_;
    uint32_t asid_ = 0;
    Rng rng_;
    /** The replacement array, as EntryMeta::stamp per entry. */
    UseClock repl_;
    /** entries_[set * assoc_ + way]. */
    std::vector<Entry> entries_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter inserts_;
};

} // namespace uhm

#endif // UHM_CORE_ASSOC_ARRAY_HH
