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
 * directly addressable memory. The first three are the shared
 * AssocArray (core/assoc_array.hh), which the tier-2 trace cache sits
 * on too: its one probe (probeIdx/icCheck) and one commit
 * (hitAt/countMiss) are what every DTB lookup runs. The Dtb adds only
 * its allocation policy, flushes, residency drains and trace anchors.
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
#include <span>
#include <vector>

#include "core/assoc_array.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "psder/short_isa.hh"

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
class Dtb : public AssocArray<std::vector<ShortInstr>>
{
  public:
    explicit Dtb(const DtbConfig &config);

    using AssocArray::asid;
    using AssocArray::setAsid;
    using AssocArray::setOf;

    /**
     * Present @p dir_addr to the DTB and commit the outcome — one hit
     * or one miss: the hit's entry index, or npos.
     */
    uint32_t
    lookup(uint64_t dir_addr)
    {
        uint32_t idx = probeIdx(dir_addr);
        if (idx == npos)
            countMiss();
        else
            hitAt(idx);
        return idx;
    }

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
    insert(uint64_t dir_addr, std::span<const ShortInstr> code,
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

        uint32_t idx = fillWay(dir_addr, out.setOccupancy);
        const EntryMeta &victim = metaAt(idx);
        bool evict = victim.valid;

        // Reserve overflow increments before evicting anything. The
        // blocks a valid victim would release count toward the supply,
        // but if the area still cannot cover the translation, the
        // resident — possibly hot — victim must survive. (Evicting
        // first and rejecting after destroyed a retained translation
        // for nothing.)
        uint64_t victim_release = evict ? victim.units - 1 : 0;
        if (overflow_needed > overflowFree_ + victim_release) {
            ++rejects_;
            return out;
        }

        if (evict) {
            out.evicted = true;
            out.victimTag = victim.tag;
            out.victimAsid = victim.asid;
            out.victimUses = victim.useCount;
            if (now > victim.insertCycle)
                out.victimResidency = now - victim.insertCycle;
            ++evictions_;
        }
        overflowFree_ += victim_release;
        overflowFree_ -= overflow_needed;
        overflowBlocks_ += overflow_needed;

        fill(idx, dir_addr, units_needed, now);
        // Into the slot's existing buffer: a first-level buffer refills
        // its slots on every promotion.
        payloadRef(idx).assign(code.begin(), code.end());
        out.retained = true;
        out.entryIdx = idx;
        return out;
    }

    /** Invalidate every entry (e.g. program image replaced). */
    void invalidateAll();

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
     * Record the residency (now - insertCycle) of every entry still
     * resident into @p into, in entry order — the halt-time drain of
     * the residency histogram, so never-evicted translations are
     * observed too. @p asid_filter restricts to one ASID; -1 means
     * all. Read-only on the DTB.
     */
    void recordResidencies(uint64_t now, int64_t asid_filter,
                           obs::Histogram &into) const;

    /**
     * Flag the resident entry for @p dir_addr as anchoring a tier-2
     * trace (see EntryMeta::anchorsTrace). Pure bookkeeping: no hit or
     * recency accounting. @return false when @p dir_addr is not
     * resident (the flag is then not set anywhere).
     */
    bool markTraceAnchor(uint64_t dir_addr);

    /** Clear the trace-anchor flag of @p dir_addr, if resident. */
    void clearTraceAnchor(uint64_t dir_addr);

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

    /** Start a stats epoch (AssocArray::resetStats) for every counter
     *  the DTB publishes. */
    void resetStats();

  private:
    /** Release entry @p idx's overflow increments and invalidate it. */
    void evict(uint32_t idx);

    DtbConfig config_;
    uint64_t overflowTotal_;
    uint64_t overflowFree_;
    /** Overflow increments handed out over the DTB's lifetime. */
    obs::Counter overflowBlocks_;
    /** Whole-buffer flushes (tenant switches in flush mode). */
    obs::Counter flushes_;
    /** Entries destroyed by flushes (distinct from evictions). */
    obs::Counter flushedEntries_;
};

} // namespace uhm

#endif // UHM_CORE_DTB_HH
