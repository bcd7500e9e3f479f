#include "tier/trace_cache.hh"

#include "support/logging.hh"

namespace uhm::tier
{

TraceCache::TraceCache(const TraceCacheConfig &config)
    : config_(config), rng_(config.seed), repl_(config.policy, &rng_)
{
    // Geometry comes from user configuration (CLI flags, wire fields):
    // an impossible one is a user error, not a simulator bug.
    if (config.unitShortInstrs < 1)
        fatal("trace-cache unit of allocation is empty");
    // Round the unit size up to whole bytes (same argument as the DTB:
    // flooring would undersize the unit and overcommit the buffer).
    uint64_t unit_bits =
        uint64_t{config.unitShortInstrs} * shortInstrBits;
    uint64_t unit_bytes = (unit_bits + 7) / 8;
    unitsTotal_ = config.capacityBytes / unit_bytes;
    if (unitsTotal_ < 1)
        fatal("trace cache of %llu bytes is smaller than one %llu-byte "
              "unit",
              static_cast<unsigned long long>(config.capacityBytes),
              static_cast<unsigned long long>(unit_bytes));

    // One tag entry per unit: the tag array can never run out before
    // the unit budget does.
    numEntries_ = unitsTotal_;
    // 0 = fully associative; a tiny cache clamps the requested ways to
    // the entry count instead of refusing to exist.
    assoc_ = config.assoc == 0 ||
             config.assoc > numEntries_ ?
        static_cast<unsigned>(numEntries_) : config.assoc;
    numSets_ = numEntries_ / assoc_;
    uhm_assert(numSets_ >= 1, "no sets");
    numEntries_ = numSets_ * assoc_;

    entries_.assign(numEntries_, Entry{});
}

uint64_t
TraceCache::setOf(uint64_t head) const
{
    uint64_t h = head * 0x9e3779b97f4a7c15ull;
    return (h >> 32) % numSets_;
}

TraceCache::Entry *
TraceCache::findEntry(uint64_t head)
{
    uint64_t set = setOf(head);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == head && e.meta.asid == asid_)
            return &e;
    }
    return nullptr;
}

const Trace *
TraceCache::lookup(uint64_t head)
{
    uint64_t set = setOf(head);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == head &&
            e.meta.asid == asid_) {
            repl_.touch(e.meta.stamp);
            ++hits_;
            ++e.meta.useCount;
            return &e.trace;
        }
    }
    ++misses_;
    return nullptr;
}

const Trace *
TraceCache::find(uint64_t head) const
{
    Entry *e = const_cast<TraceCache *>(this)->findEntry(head);
    return e ? &e->trace : nullptr;
}

bool
TraceCache::refOf(uint64_t head, uint32_t &idx_out,
                  uint32_t &gen_out) const
{
    const Entry *e = const_cast<TraceCache *>(this)->findEntry(head);
    if (!e)
        return false;
    idx_out = static_cast<uint32_t>(e - entries_.data());
    gen_out = e->meta.gen;
    return true;
}

std::vector<uint32_t>
TraceCache::setOccupancy() const
{
    std::vector<uint32_t> occupancy(numSets_, 0);
    for (uint64_t i = 0; i < numEntries_; ++i) {
        if (entries_[i].meta.valid)
            ++occupancy[i / assoc_];
    }
    return occupancy;
}

TraceCache::InsertOutcome
TraceCache::insert(Trace trace)
{
    unsigned units_needed = static_cast<unsigned>(
        (trace.shortCount + config_.unitShortInstrs - 1) /
        config_.unitShortInstrs);
    if (units_needed == 0)
        units_needed = 1;

    InsertOutcome out;
    out.unitsNeeded = units_needed;

    uint64_t set = setOf(trace.head);
    Entry *set_entries = &entries_[set * assoc_];

    // A resident trace with the same head is always its own victim
    // (re-installation replaces it); otherwise prefer an invalid way,
    // then the replacement array's choice.
    unsigned way = assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set_entries[w].meta.valid &&
            set_entries[w].meta.tag == trace.head &&
            set_entries[w].meta.asid == asid_) {
            way = w;
            break;
        }
    }
    if (way == assoc_) {
        unsigned occupancy = 0;
        way = repl_.fillWay(
            assoc_, [&](unsigned w) { return set_entries[w].meta.valid; },
            [&](unsigned w) { return set_entries[w].meta.stamp; },
            occupancy);
    }
    Entry *victim =
        set_entries[way].meta.valid ? &set_entries[way] : nullptr;

    // Check the unit budget before destroying anything: the victim's
    // units count toward the supply, but if the budget still cannot
    // cover the trace, the resident victim survives.
    uint64_t victim_release =
        victim && victim->meta.valid ? victim->meta.units : 0;
    if (units_needed > unitsTotal_ - unitsUsed_ + victim_release) {
        ++rejects_;
        return out;
    }

    if (victim) {
        out.evicted = true;
        out.victimHead = victim->meta.tag;
        evict(*victim);
        ++evictions_;
    }

    Entry &e = set_entries[way];
    e.meta.reset();
    e.meta.tag = trace.head;
    e.meta.asid = asid_;
    e.meta.valid = true;
    e.meta.units = units_needed;
    e.trace = std::move(trace);
    unitsUsed_ += units_needed;
    repl_.fill(e.meta.stamp);
    ++inserts_;
    out.retained = true;
    return out;
}

bool
TraceCache::invalidate(uint64_t head)
{
    Entry *e = findEntry(head);
    if (!e)
        return false;
    evict(*e);
    ++invalidations_;
    return true;
}

void
TraceCache::invalidateAll()
{
    for (Entry &e : entries_) {
        if (e.meta.valid)
            evict(e);
    }
}

void
TraceCache::evict(Entry &entry)
{
    uhm_assert(unitsUsed_ >= entry.meta.units,
               "trace-cache unit accounting underflow");
    unitsUsed_ -= entry.meta.units;
    entry.meta.reset();
    entry.trace = Trace{};
}

void
TraceCache::registerCounters(obs::Registry &registry,
                             const std::string &prefix) const
{
    registry.add(obs::joinName(prefix, "hits"), hits_);
    registry.add(obs::joinName(prefix, "misses"), misses_);
    registry.add(obs::joinName(prefix, "inserts"), inserts_);
    registry.add(obs::joinName(prefix, "evictions"), evictions_);
    registry.add(obs::joinName(prefix, "rejects"), rejects_);
    registry.add(obs::joinName(prefix, "invalidations"), invalidations_);
}

void
TraceCache::resetStats()
{
    hits_.reset();
    misses_.reset();
    inserts_.reset();
    evictions_.reset();
    rejects_.reset();
    invalidations_.reset();
    // Same epoch rule as Dtb::resetStats: per-entry observability state
    // restarts, resident traces (and their unit footprint) survive.
    for (Entry &e : entries_) {
        if (e.meta.valid) {
            e.meta.useCount = 0;
            e.meta.insertCycle = 0;
        }
    }
}

} // namespace uhm::tier
