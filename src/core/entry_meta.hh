/**
 * @file
 * Per-entry metadata shared by the translation-holding caches.
 *
 * The DTB (core/dtb.hh) and the tier-2 trace cache
 * (tier/trace_cache.hh) sit on one associative array of translations
 * keyed by DIR bit address (core/assoc_array.hh). This is the
 * bookkeeping block of one of its entries: the tag, validity, the
 * allocation-unit footprint and the hotness/promotion state the
 * adaptive tier reads.
 *
 * The replacement array lives here too, as one use stamp per entry
 * (EntryMeta::stamp, driven by mem/replacement.hh's UseClock): a hit
 * under LRU and every fill set it to the structure's ++clock, and the
 * victim is the set's way with the lowest stamp. That is exact, not an
 * approximation: the DTB and the trace cache prefer an invalid way and
 * consult the victim only when the whole set is valid, so every way
 * then carries the stamp of its last fill or hit. reset() therefore
 * leaves the stamp alone.
 */

#ifndef UHM_CORE_ENTRY_META_HH
#define UHM_CORE_ENTRY_META_HH

#include <cstdint>

namespace uhm
{

/** Bookkeeping block of one cached-translation entry. */
struct EntryMeta
{
    /** DIR bit address this entry translates. */
    uint64_t tag = 0;
    /**
     * Address-space ID of the tenant that owns the translation. A
     * lookup matches only entries of the cache's current ASID, so two
     * tenants sharing one buffer (tag-and-share mode) can hold
     * translations for the same DIR address side by side. Single-tenant
     * machines leave every ASID 0.
     */
    uint32_t asid = 0;
    /** The entry holds a live translation. */
    bool valid = false;
    /** Buffer units consumed: 1 primary + overflow increments. */
    unsigned units = 1;
    /**
     * Hotness: times a lookup found this entry (bumped on every hit).
     * Dies with the entry — an evicted translation restarts cold.
     */
    uint32_t useCount = 0;
    /**
     * Replacement use stamp: the structure's UseClock value at the last
     * fill (or, under LRU, hit). Survives reset(): an invalid way is
     * never a stamp-ordered victim, and its next fill restamps it.
     */
    uint64_t stamp = 0;
    /**
     * Backward control transfers that landed on this entry while it was
     * resident (the tier's per-backedge promotion counter). Only the
     * Tiered organization bumps it.
     */
    uint32_t backedgeCount = 0;
    /**
     * A tier-2 trace is anchored at this entry's tag. Evicting the
     * entry must invalidate the trace (tier/engine.hh keeps the two in
     * sync); a trace is only ever dispatched through a resident entry
     * whose flag is set.
     */
    bool anchorsTrace = false;
    /**
     * Machine cycle count when the entry was installed. Observability
     * only: eviction subtracts it from the current count to charge a
     * residency-lifetime histogram. Paths that insert without a cycle
     * source leave it 0 (their residency is then not meaningful).
     */
    uint64_t insertCycle = 0;
    /**
     * Content generation: bumped every time the entry's contents change
     * (reset runs on every insert, evict, flush and invalidate path, so
     * one increment here covers them all). Hosts that cache derived
     * state keyed by entry index — the fast dispatch path's lowered run
     * images and inline caches (uhm/run_image.hh) — compare their
     * recorded generation against this one and relower on mismatch.
     * Never cleared: a fresh generation must differ from every stale
     * copy, so it is 64 bits wide — a 32-bit one wraps after 2^32
     * resets of one slot, and a wrapped generation both revalidates
     * stale lowerings and reaches 0, which default-constructed ones
     * carry. Simulated behavior and cycle accounting never read it.
     */
    uint64_t gen = 0;

    /** Return to the empty state (eviction). */
    void
    reset()
    {
        tag = 0;
        asid = 0;
        valid = false;
        units = 1;
        useCount = 0;
        backedgeCount = 0;
        anchorsTrace = false;
        insertCycle = 0;
        ++gen;
    }
};

} // namespace uhm

#endif // UHM_CORE_ENTRY_META_HH
