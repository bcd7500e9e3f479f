#include "core/dtb.hh"

#include "support/logging.hh"

namespace uhm
{

namespace
{

/** Allocation units the buffer array holds: primary plus overflow. */
uint64_t
totalUnits(const DtbConfig &config)
{
    // Geometry comes from user configuration (CLI flags, wire fields):
    // an impossible one is a user error, not a simulator bug.
    checkLimit("DTB", config.capacityBytes, maxBufferBytes, "byte");
    if (config.unitShortInstrs < 1)
        fatal("DTB unit of allocation is empty");
    // Round the unit size *up* to whole bytes: flooring would undersize
    // the unit whenever unitShortInstrs * shortInstrBits is not
    // byte-aligned, silently overcommitting the buffer array.
    uint64_t unit_bits =
        uint64_t{config.unitShortInstrs} * shortInstrBits;
    uint64_t unit_bytes = (unit_bits + 7) / 8;
    uint64_t total_units = config.capacityBytes / unit_bytes;
    if (total_units < 1)
        fatal("DTB of %llu bytes is smaller than one %llu-byte unit",
              static_cast<unsigned long long>(config.capacityBytes),
              static_cast<unsigned long long>(unit_bytes));
    return total_units;
}

/** Units reserved as the overflow area. */
uint64_t
overflowUnits(const DtbConfig &config)
{
    return config.allowOverflow ?
        static_cast<uint64_t>(
            static_cast<double>(totalUnits(config)) *
            config.overflowFraction) :
        0;
}

/** The address array: one entry per primary unit. */
AssocGeometry
geometryOf(const DtbConfig &config)
{
    AssocGeometry g;
    g.entries = totalUnits(config) - overflowUnits(config);
    if (g.entries < 1)
        fatal("DTB overflow reserve leaves no primary units");
    g.assoc = config.assoc == 0 ? static_cast<unsigned>(g.entries) :
        config.assoc;
    if (g.assoc > g.entries)
        fatal("DTB associativity %u exceeds its %llu entries", g.assoc,
              static_cast<unsigned long long>(g.entries));
    checkLimit("DTB", g.assoc, maxWays, "way");
    uint64_t sets = g.entries / g.assoc;
    g.partitions = config.numPartitions;
    if (g.partitions > sets)
        fatal("%llu DTB partitions exceed its %llu sets",
              static_cast<unsigned long long>(g.partitions),
              static_cast<unsigned long long>(sets));
    return g;
}

} // anonymous namespace

Dtb::Dtb(const DtbConfig &config)
    : AssocArray(geometryOf(config), config.policy, config.seed),
      config_(config), overflowTotal_(overflowUnits(config)),
      overflowFree_(overflowTotal_)
{}

bool
Dtb::markTraceAnchor(uint64_t dir_addr)
{
    uint32_t idx = probeIdx(dir_addr);
    if (idx == npos)
        return false;
    metaAt(idx).anchorsTrace = true;
    return true;
}

void
Dtb::clearTraceAnchor(uint64_t dir_addr)
{
    uint32_t idx = probeIdx(dir_addr);
    if (idx != npos)
        metaAt(idx).anchorsTrace = false;
}

void
Dtb::registerCounters(obs::Registry &registry,
                      const std::string &prefix) const
{
    AssocArray::registerCounters(registry, prefix);
    registry.add(prefix, "overflow_blocks", overflowBlocks_);
    registry.add(prefix, "flushes", flushes_);
    registry.add(prefix, "flushed_entries", flushedEntries_);
}

std::vector<Dtb::FlushedEntry>
Dtb::flush(uint64_t now)
{
    std::vector<FlushedEntry> victims;
    for (uint32_t idx = 0; idx < numEntries(); ++idx) {
        const EntryMeta &m = metaAt(idx);
        if (!m.valid)
            continue;
        FlushedEntry v;
        v.tag = m.tag;
        v.asid = m.asid;
        if (now > m.insertCycle)
            v.residency = now - m.insertCycle;
        v.uses = m.useCount;
        v.anchoredTrace = m.anchorsTrace;
        victims.push_back(v);
        evict(idx);
        ++flushedEntries_;
    }
    ++flushes_;
    return victims;
}

void
Dtb::recordResidencies(uint64_t now, int64_t asid_filter,
                       obs::Histogram &into) const
{
    for (uint32_t idx = 0; idx < numEntries(); ++idx) {
        const EntryMeta &m = metaAt(idx);
        if (!m.valid)
            continue;
        if (asid_filter >= 0 && m.asid != static_cast<uint32_t>(asid_filter))
            continue;
        into.record(now > m.insertCycle ? now - m.insertCycle : 0);
    }
}

void
Dtb::resetStats()
{
    AssocArray::resetStats();
    overflowBlocks_.reset();
    flushes_.reset();
    flushedEntries_.reset();
}

void
Dtb::evict(uint32_t idx)
{
    EntryMeta &m = metaAt(idx);
    if (m.valid && m.units > 1)
        overflowFree_ += m.units - 1;
    m.reset();
    payloadRef(idx).clear();
}

void
Dtb::invalidateAll()
{
    for (uint32_t idx = 0; idx < numEntries(); ++idx)
        evict(idx);
}

} // namespace uhm
