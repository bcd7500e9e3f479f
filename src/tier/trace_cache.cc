#include "tier/trace_cache.hh"

#include "support/logging.hh"

namespace uhm::tier
{

namespace
{

/** Allocation units the buffer holds. */
uint64_t
totalUnits(const TraceCacheConfig &config)
{
    // Geometry comes from user configuration (CLI flags, wire fields):
    // an impossible one is a user error, not a simulator bug.
    checkLimit("trace cache", config.capacityBytes, maxBufferBytes,
               "byte");
    if (config.unitShortInstrs < 1)
        fatal("trace-cache unit of allocation is empty");
    // Round the unit size up to whole bytes (same argument as the DTB:
    // flooring would undersize the unit and overcommit the buffer).
    uint64_t unit_bits =
        uint64_t{config.unitShortInstrs} * shortInstrBits;
    uint64_t unit_bytes = (unit_bits + 7) / 8;
    uint64_t units = config.capacityBytes / unit_bytes;
    if (units < 1)
        fatal("trace cache of %llu bytes is smaller than one %llu-byte "
              "unit",
              static_cast<unsigned long long>(config.capacityBytes),
              static_cast<unsigned long long>(unit_bytes));
    return units;
}

/**
 * One tag entry per unit: the tag array can never run out before the
 * unit budget does. 0 ways = fully associative; a tiny cache clamps
 * the requested ways to the entry count instead of refusing to exist.
 */
AssocGeometry
geometryOf(const TraceCacheConfig &config)
{
    AssocGeometry g;
    g.entries = totalUnits(config);
    g.assoc = config.assoc == 0 || config.assoc > g.entries ?
        static_cast<unsigned>(g.entries) : config.assoc;
    checkLimit("trace cache", g.assoc, maxWays, "way");
    return g;
}

} // anonymous namespace

TraceCache::TraceCache(const TraceCacheConfig &config)
    : AssocArray(geometryOf(config), config.policy, config.seed),
      config_(config), unitsTotal_(totalUnits(config))
{}

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

    uint32_t idx = probeIdx(trace.head);
    if (idx == npos) {
        unsigned occupancy = 0;
        idx = fillWay(trace.head, occupancy);
    }
    const EntryMeta &victim = metaAt(idx);

    // Check the unit budget before destroying anything: the victim's
    // units count toward the supply, but if the budget still cannot
    // cover the trace, the resident victim survives.
    uint64_t victim_release = victim.valid ? victim.units : 0;
    if (units_needed > unitsTotal_ - unitsUsed_ + victim_release) {
        ++rejects_;
        return out;
    }

    if (victim.valid) {
        out.evicted = true;
        out.victimHead = victim.tag;
        evict(idx);
        ++evictions_;
    }

    fill(idx, trace.head, units_needed, 0);
    payloadRef(idx) = std::move(trace);
    unitsUsed_ += units_needed;
    out.retained = true;
    return out;
}

bool
TraceCache::invalidate(uint64_t head)
{
    uint32_t idx = probeIdx(head);
    if (idx == npos)
        return false;
    evict(idx);
    ++invalidations_;
    return true;
}

void
TraceCache::invalidateAll()
{
    for (uint32_t idx = 0; idx < numEntries(); ++idx) {
        if (metaAt(idx).valid)
            evict(idx);
    }
}

void
TraceCache::evict(uint32_t idx)
{
    EntryMeta &m = metaAt(idx);
    uhm_assert(unitsUsed_ >= m.units,
               "trace-cache unit accounting underflow");
    unitsUsed_ -= m.units;
    m.reset();
    payloadRef(idx) = Trace{};
}

void
TraceCache::registerCounters(obs::Registry &registry,
                             const std::string &prefix) const
{
    AssocArray::registerCounters(registry, prefix);
    registry.add(prefix, "invalidations", invalidations_);
}

void
TraceCache::resetStats()
{
    AssocArray::resetStats();
    invalidations_.reset();
}

} // namespace uhm::tier
