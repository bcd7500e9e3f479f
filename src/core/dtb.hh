/**
 * @file
 * The Dynamic Translation Buffer (section 5).
 *
 * The DTB maintains, in a tightly bound (PSDER) representation, the
 * working set of a program whose static representation is a compact
 * encoded DIR. Organizationally it follows Figure 2: an associative tag
 * array (DIR instruction addresses), an address array (explicit pointers
 * into the buffer array — kept explicit, as section 5.2 argues, so the
 * unit of allocation can vary per configuration), a replacement array
 * (per-set recency ordering, kept as a use stamp per entry:
 * mem/replacement.hh) and the buffer array itself, which holds
 * the PSDER short-format instructions and lives in the machine's
 * directly addressable memory.
 *
 * Allocation follows section 5.1: a fixed unit of allocation, optionally
 * extended by "a variable allocation with fixed size increments" — when
 * a translation exceeds the unit, additional blocks are taken from a
 * secondary overflow area and linked to the primary unit. If the
 * overflow area is exhausted, the translation simply is not retained
 * (the program still runs; the entry is re-translated on next touch).
 */

#ifndef UHM_CORE_DTB_HH
#define UHM_CORE_DTB_HH

#include <cstdint>
#include <vector>

#include "core/entry_meta.hh"
#include "mem/replacement.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "psder/short_isa.hh"
#include "support/rng.hh"

namespace uhm
{

/** DTB geometry and policy. */
struct DtbConfig
{
    /** Buffer-array capacity in bytes. */
    uint64_t capacityBytes = 4096;
    /** Unit of allocation, in short instructions. */
    unsigned unitShortInstrs = 4;
    /** Associativity of the address array; 0 = fully associative. */
    unsigned assoc = 4;
    ReplPolicy policy = ReplPolicy::LRU;
    /**
     * Allow overflow blocks (section 5.1's variable allocation with
     * fixed increments). When false a translation longer than the unit
     * of allocation cannot be retained.
     */
    bool allowOverflow = true;
    /** Fraction of buffer units reserved as the overflow area. */
    double overflowFraction = 0.25;
    /** Seed for the Random replacement policy. */
    uint64_t seed = 7;
    /**
     * Partitioned set allocation for multi-tenant sharing: when >= 2,
     * the set space is divided into this many contiguous regions and a
     * tenant's accesses hash only within region asid % numPartitions —
     * tenants cannot evict each other, at the price of a smaller
     * effective buffer each. 0 or 1 leaves the whole set space shared
     * (tag-and-share interference, measurable by bench_multitenant).
     */
    uint64_t numPartitions = 0;
};

/** The dynamic translation buffer. */
class Dtb
{
  public:
    explicit Dtb(const DtbConfig &config);

    /** Result of presenting a DIR address to the associative array. */
    struct LookupResult
    {
        bool hit = false;
        /** The resident translation (hit only); valid until the next
         *  lookup/insert. */
        const std::vector<ShortInstr> *code = nullptr;
        /** Buffer-array units the resident entry occupies (hit only). */
        unsigned units = 0;
        /**
         * The entry's metadata block (hit only; valid until the next
         * insert). Mutable so the tier's hotness profiler can bump the
         * backedge counter it keeps there.
         */
        EntryMeta *meta = nullptr;
        /**
         * Index of the hit entry in the address array (hit only):
         * set * assoc + way. The fast dispatch path stores it in a
         * per-site inline cache and revalidates with icCheck().
         */
        uint32_t entryIdx = 0;
    };

    /**
     * Present @p dir_addr (a DIR bit address) to the DTB: hash to a set,
     * search the tags, update recency. Counts a hit or a miss.
     */
    LookupResult lookup(uint64_t dir_addr);

    /** What Dtb::insert did, for callers that trace or account. */
    struct InsertOutcome
    {
        /** The translation is now resident. */
        bool retained = false;
        /** A resident entry was destroyed to make room. */
        bool evicted = false;
        /** DIR tag of the destroyed entry (when evicted). */
        uint64_t victimTag = 0;
        /** Owner ASID of the destroyed entry (when evicted). */
        uint32_t victimAsid = 0;
        /** Buffer units the new translation needs. */
        unsigned unitsNeeded = 1;
        /** Cycles the victim was resident: now - insertCycle
         *  (when evicted and both stamps are meaningful). */
        uint64_t victimResidency = 0;
        /** Hits the victim collected while resident (when evicted). */
        uint32_t victimUses = 0;
        /** Valid ways in the target set before this insert. */
        unsigned setOccupancy = 0;
        /** Address-array index of the new entry (when retained). */
        uint32_t entryIdx = 0;
    };

    /**
     * Install the translation of @p dir_addr, replacing the set's
     * least-recently-used entry. Mirrors Figure 4: the replacement logic
     * picks the location, the tag is stored, and the translation is
     * written into the buffer array. Overflow increments are reserved
     * *before* the victim is evicted: when the overflow area (counting
     * the blocks the victim would release) cannot supply the needed
     * increments, the translation is rejected and the resident —
     * possibly hot — victim survives untouched.
     *
     * @p now is the caller's cycle count, stamped into the new entry's
     * EntryMeta::insertCycle so evictions can report residency
     * lifetimes. Callers without a cycle source pass 0 (the default);
     * residency figures are then 0 rather than wrong.
     */
    InsertOutcome
    insert(uint64_t dir_addr, const std::vector<ShortInstr> &code,
           uint64_t now = 0)
    {
        // Most translations fit one unit; skip the divide for them.
        const uint64_t unit = config_.unitShortInstrs;
        unsigned units_needed = code.size() <= unit ? 1 :
            static_cast<unsigned>((code.size() + unit - 1) / unit);
        unsigned overflow_needed = units_needed - 1;

        InsertOutcome out;
        out.unitsNeeded = units_needed;

        if (overflow_needed > 0 && !config_.allowOverflow) {
            ++rejects_;
            return out;
        }

        uint64_t set = setOf(dir_addr);
        Entry *set_entries = &entries_[set * assoc_];

        // Prefer an invalid way; otherwise the replacement array's
        // victim.
        unsigned way = repl_.fillWay(
            assoc_, [&](unsigned w) { return set_entries[w].meta.valid; },
            [&](unsigned w) { return set_entries[w].meta.stamp; },
            out.setOccupancy);
        Entry &e = set_entries[way];
        bool evict = e.meta.valid;

        // Reserve overflow increments before evicting anything. The
        // blocks a valid victim would release count toward the supply,
        // but if the area still cannot cover the translation, the
        // resident — possibly hot — victim must survive. (Evicting
        // first and rejecting after destroyed a retained translation
        // for nothing.)
        uint64_t victim_release = evict ? e.meta.units - 1 : 0;
        if (overflow_needed > overflowFree_ + victim_release) {
            ++rejects_;
            return out;
        }

        if (evict) {
            out.evicted = true;
            out.victimTag = e.meta.tag;
            out.victimAsid = e.meta.asid;
            out.victimUses = e.meta.useCount;
            if (now > e.meta.insertCycle)
                out.victimResidency = now - e.meta.insertCycle;
            ++evictions_;
        }
        overflowFree_ += victim_release;
        overflowFree_ -= overflow_needed;
        overflowBlocks_ += overflow_needed;

        e.meta.reset();
        e.meta.tag = dir_addr;
        e.meta.asid = asid_;
        e.meta.valid = true;
        e.meta.units = units_needed;
        e.meta.insertCycle = now;
        // Into the slot's existing buffer: a first-level buffer refills
        // its slots on every promotion.
        e.code.assign(code.begin(), code.end());
        repl_.fill(e.meta.stamp);
        ++inserts_;
        out.retained = true;
        out.entryIdx = static_cast<uint32_t>(set * assoc_ + way);
        return out;
    }

    /** Invalidate every entry (e.g. program image replaced). */
    void invalidateAll();

    /**
     * Select the address space subsequent lookups, inserts and anchor
     * operations run in. Entries of other ASIDs stay resident (and, in
     * shared-set mode, remain eviction candidates) but never match.
     */
    void setAsid(uint32_t asid) { asid_ = asid; }

    /** The current address-space ID. */
    uint32_t asid() const { return asid_; }

    /** One entry destroyed by flush(), for residency/anchor accounting. */
    struct FlushedEntry
    {
        /** DIR tag of the flushed entry. */
        uint64_t tag = 0;
        /** Owner of the flushed entry. */
        uint32_t asid = 0;
        /** Cycles the entry was resident (now - insertCycle). */
        uint64_t residency = 0;
        /** Hits the entry collected while resident. */
        uint32_t uses = 0;
        /** The entry anchored a tier-2 trace that must be invalidated. */
        bool anchoredTrace = false;
    };

    /**
     * Destroy every resident entry — all ASIDs — through the same
     * release path eviction uses, and report each victim so the caller
     * can drain residency histograms and invalidate anchored traces
     * (the flush-on-switch path; a bare invalidateAll() would leave
     * dangling trace anchors). @p now is the caller's cycle count, as
     * for insert(). Counts one flush plus one flushed entry per victim;
     * capacity evictions are not inflated.
     */
    std::vector<FlushedEntry> flush(uint64_t now);

    /**
     * Residency (now - insertCycle) of every entry still resident, in
     * entry order — what a halt-time drain feeds the residency
     * histogram so never-evicted translations are observed too.
     * @p asid_filter restricts to one ASID; -1 means all. Read-only.
     */
    std::vector<uint64_t> residentResidencies(uint64_t now,
                                              int64_t asid_filter = -1)
        const;

    /**
     * Flag the resident entry for @p dir_addr as anchoring a tier-2
     * trace (see EntryMeta::anchorsTrace). Pure bookkeeping: no hit or
     * recency accounting. @return false when @p dir_addr is not
     * resident (the flag is then not set anywhere).
     */
    bool markTraceAnchor(uint64_t dir_addr);

    /** Clear the trace-anchor flag of @p dir_addr, if resident. */
    void clearTraceAnchor(uint64_t dir_addr);

    /**
     * The set index @p dir_addr hashes to: a multiplicative hash of the
     * DIR bit address ("the DIR instruction address is hashed to select
     * a unique set"). In partitioned mode the hash lands inside the
     * current tenant's contiguous region (the trailing
     * numSets_ % numPartitions_ sets go unused — the partitions stay
     * equal-sized). Inline: every probe on the dispatch path starts
     * here.
     */
    uint64_t
    setOf(uint64_t dir_addr) const
    {
        uint64_t h = (dir_addr * 0x9e3779b97f4a7c15ull) >> 32;
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

    // ---- inline-cache fast-hit interface ---------------------------------
    //
    // A dispatch-loop call site that resolved @p dir_addr through
    // lookup() once may cache the returned entryIdx and on later visits
    // skip the hash and way scan: icCheck() revalidates the cached
    // index with zero accounting side effects, and hitAt() then applies
    // exactly the accounting the hit branch of lookup() would have
    // (recency touch, hit count, use count). Any entry replacement
    // invalidates the cached index naturally — the tag or ASID no
    // longer matches — and EntryMeta::gen invalidates derived state.

    /**
     * Would a lookup of @p dir_addr hit entry @p idx right now? Pure
     * predicate: no hit/miss counting, no recency update.
     */
    bool
    icCheck(uint32_t idx, uint64_t dir_addr) const
    {
        const Entry &e = entries_[idx];
        return e.meta.valid && e.meta.tag == dir_addr &&
            e.meta.asid == asid_;
    }

    /**
     * Entry index a lookup() of @p dir_addr would hit right now, or
     * UINT32_MAX on a miss. Pure probe: no hit/miss counting, no
     * recency update — the caller commits a hit with hitAt(), or lets
     * the regular miss path count the miss.
     */
    uint32_t
    probeIdx(uint64_t dir_addr) const
    {
        uint64_t set = setOf(dir_addr);
        const Entry *set_entries = &entries_[set * assoc_];
        for (unsigned way = 0; way < assoc_; ++way) {
            const Entry &e = set_entries[way];
            if (e.meta.valid && e.meta.tag == dir_addr &&
                e.meta.asid == asid_)
                return static_cast<uint32_t>(set * assoc_ + way);
        }
        return UINT32_MAX;
    }

    /**
     * Apply the hit-path accounting of lookup() to entry @p idx (which
     * the caller just validated with icCheck): recency touch, one hit,
     * one use. Byte-identical counter and replacement state to a full
     * lookup() that hit.
     */
    void
    hitAt(uint32_t idx)
    {
        EntryMeta &meta = entries_[idx].meta;
        repl_.touch(meta.stamp);
        ++hits_;
        ++meta.useCount;
    }

    /**
     * Count the miss a lookup() of an address that probeIdx() just
     * reported absent would have counted. A miss touches nothing else,
     * so this is byte-identical to that lookup().
     */
    void countMiss() { ++misses_; }

    /** Metadata block of entry @p idx (IC-validated callers only). */
    EntryMeta &metaAt(uint32_t idx) { return entries_[idx].meta; }
    const EntryMeta &
    metaAt(uint32_t idx) const
    {
        return entries_[idx].meta;
    }

    /** Resident translation of entry @p idx (IC-validated callers). */
    const std::vector<ShortInstr> &
    codeAt(uint32_t idx) const
    {
        return entries_[idx].code;
    }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t inserts() const { return inserts_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t rejects() const { return rejects_.value(); }

    /** Hit ratio so far (the paper's h_D); 1.0 before any access. */
    double
    hitRatio() const
    {
        uint64_t total = hits_.value() + misses_.value();
        return total == 0 ? 1.0 :
            static_cast<double>(hits_.value()) /
            static_cast<double>(total);
    }

    /** Number of primary entries (address-array size). */
    uint64_t numEntries() const { return numEntries_; }

    /** Number of sets. */
    uint64_t numSets() const { return numSets_; }

    /** Ways per set. */
    unsigned assoc() const { return assoc_; }

    /**
     * Valid entries per set, numSets() elements in set order. A fresh
     * snapshot per call — meant for the interval sampler and tests, not
     * for the dispatch path.
     */
    std::vector<uint32_t> setOccupancy() const;

    /** Overflow blocks currently free. */
    uint64_t overflowFree() const { return overflowFree_; }

    /** Total overflow blocks. */
    uint64_t overflowTotal() const { return overflowTotal_; }

    uint64_t flushes() const { return flushes_.value(); }
    uint64_t flushedEntries() const { return flushedEntries_.value(); }

    /**
     * Publish this DTB's counters into @p registry under
     * "<prefix>.hits", "<prefix>.misses", "<prefix>.inserts",
     * "<prefix>.evictions", "<prefix>.rejects",
     * "<prefix>.overflow_blocks", "<prefix>.flushes",
     * "<prefix>.flushed_entries".
     */
    void registerCounters(obs::Registry &registry,
                          const std::string &prefix) const;

    const DtbConfig &config() const { return config_; }

    /**
     * Reset all counters AND the per-entry observability state (use
     * counts and insert-cycle stamps) so residency/use figures measured
     * after the reset carry nothing from the previous epoch. Resident
     * translations — and the behavioral state the tier reads
     * (backedge counters, anchor flags) — are retained.
     */
    void resetStats();

  private:
    struct Entry
    {
        /** Shared bookkeeping block (core/entry_meta.hh). */
        EntryMeta meta;
        /** The PSDER translation (primary unit + linked increments). */
        std::vector<ShortInstr> code;
    };

    /** Release @p entry's overflow increments and invalidate it. */
    void evict(Entry &entry);

    /** The resident entry tagged @p dir_addr, or null. No accounting. */
    Entry *findEntry(uint64_t dir_addr);

    DtbConfig config_;
    uint64_t numEntries_;
    uint64_t numSets_;
    /** ceil(2^64 / numSets_): the multiplier setOf() reduces by. */
    uint64_t setModM_;
    unsigned assoc_;
    uint64_t overflowTotal_;
    uint64_t overflowFree_;
    /** Active partitions (0 or 1 = shared set space). */
    uint64_t numPartitions_;
    /** Sets per partition (numSets_ when unpartitioned). */
    uint64_t setsPerPartition_;
    /** Current address-space ID (0 for single-tenant machines). */
    uint32_t asid_ = 0;
    Rng rng_;
    /** The replacement array, as EntryMeta::stamp per entry. */
    UseClock repl_;
    /** entries_[set * assoc_ + way]. */
    std::vector<Entry> entries_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter inserts_;
    obs::Counter evictions_;
    obs::Counter rejects_;
    /** Overflow increments handed out over the DTB's lifetime. */
    obs::Counter overflowBlocks_;
    /** Whole-buffer flushes (tenant switches in flush mode). */
    obs::Counter flushes_;
    /** Entries destroyed by flushes (distinct from evictions_). */
    obs::Counter flushedEntries_;
};

} // namespace uhm

#endif // UHM_CORE_DTB_HH
