#include "core/dtb.hh"

#include "support/logging.hh"

namespace uhm
{

Dtb::Dtb(const DtbConfig &config)
    : config_(config), rng_(config.seed), repl_(config.policy, &rng_)
{
    // Geometry comes from user configuration (CLI flags, wire fields):
    // an impossible one is a user error, not a simulator bug.
    if (config.unitShortInstrs < 1)
        fatal("DTB unit of allocation is empty");
    // Round the unit size *up* to whole bytes: flooring would undersize
    // the unit whenever unitShortInstrs * shortInstrBits is not
    // byte-aligned, silently overcommitting the buffer array.
    uint64_t unit_bits =
        uint64_t{config.unitShortInstrs} * shortInstrBits;
    uint64_t unit_bytes = (unit_bits + 7) / 8;
    uhm_assert(unit_bytes * 8 >= unit_bits,
               "unit of allocation cannot hold its instructions");
    uint64_t total_units = config.capacityBytes / unit_bytes;
    if (total_units < 1)
        fatal("DTB of %llu bytes is smaller than one %llu-byte unit",
              static_cast<unsigned long long>(config.capacityBytes),
              static_cast<unsigned long long>(unit_bytes));
    uhm_assert(total_units * unit_bytes <= config.capacityBytes,
               "allocation units exceed buffer-array capacity");

    overflowTotal_ = config.allowOverflow ?
        static_cast<uint64_t>(
            static_cast<double>(total_units) * config.overflowFraction) :
        0;
    numEntries_ = total_units - overflowTotal_;
    if (numEntries_ < 1)
        fatal("DTB overflow reserve leaves no primary units");
    overflowFree_ = overflowTotal_;

    assoc_ = config.assoc == 0 ? static_cast<unsigned>(numEntries_) :
        config.assoc;
    if (assoc_ > numEntries_)
        fatal("DTB associativity %u exceeds its %llu entries", assoc_,
              static_cast<unsigned long long>(numEntries_));
    numSets_ = numEntries_ / assoc_;
    uhm_assert(numSets_ >= 1, "no sets");
    if (numSets_ > UINT32_MAX)
        fatal("DTB has too many sets (%llu)",
              static_cast<unsigned long long>(numSets_));
    setModM_ = UINT64_MAX / numSets_ + 1;
    // Trim entries that do not fill a whole set.
    numEntries_ = numSets_ * assoc_;

    numPartitions_ = config.numPartitions <= 1 ? 1 :
        config.numPartitions;
    if (numPartitions_ > numSets_)
        fatal("%llu DTB partitions exceed its %llu sets",
              static_cast<unsigned long long>(numPartitions_),
              static_cast<unsigned long long>(numSets_));
    setsPerPartition_ = numSets_ / numPartitions_;

    entries_.assign(numEntries_, Entry{});
}

Dtb::LookupResult
Dtb::lookup(uint64_t dir_addr)
{
    uint64_t set = setOf(dir_addr);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == dir_addr &&
            e.meta.asid == asid_) {
            repl_.touch(e.meta.stamp);
            ++hits_;
            ++e.meta.useCount;
            return {true, &e.code, e.meta.units, &e.meta,
                    static_cast<uint32_t>(set * assoc_ + way)};
        }
    }
    ++misses_;
    return {};
}

Dtb::Entry *
Dtb::findEntry(uint64_t dir_addr)
{
    uint64_t set = setOf(dir_addr);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == dir_addr &&
            e.meta.asid == asid_)
            return &e;
    }
    return nullptr;
}

bool
Dtb::markTraceAnchor(uint64_t dir_addr)
{
    Entry *e = findEntry(dir_addr);
    if (!e)
        return false;
    e->meta.anchorsTrace = true;
    return true;
}

void
Dtb::clearTraceAnchor(uint64_t dir_addr)
{
    if (Entry *e = findEntry(dir_addr))
        e->meta.anchorsTrace = false;
}

std::vector<uint32_t>
Dtb::setOccupancy() const
{
    std::vector<uint32_t> occupancy(numSets_, 0);
    for (uint64_t i = 0; i < numEntries_; ++i) {
        if (entries_[i].meta.valid)
            ++occupancy[i / assoc_];
    }
    return occupancy;
}

void
Dtb::registerCounters(obs::Registry &registry,
                      const std::string &prefix) const
{
    registry.add(obs::joinName(prefix, "hits"), hits_);
    registry.add(obs::joinName(prefix, "misses"), misses_);
    registry.add(obs::joinName(prefix, "inserts"), inserts_);
    registry.add(obs::joinName(prefix, "evictions"), evictions_);
    registry.add(obs::joinName(prefix, "rejects"), rejects_);
    registry.add(obs::joinName(prefix, "overflow_blocks"),
                 overflowBlocks_);
    registry.add(obs::joinName(prefix, "flushes"), flushes_);
    registry.add(obs::joinName(prefix, "flushed_entries"),
                 flushedEntries_);
}

std::vector<Dtb::FlushedEntry>
Dtb::flush(uint64_t now)
{
    std::vector<FlushedEntry> victims;
    for (Entry &e : entries_) {
        if (!e.meta.valid)
            continue;
        FlushedEntry v;
        v.tag = e.meta.tag;
        v.asid = e.meta.asid;
        if (now > e.meta.insertCycle)
            v.residency = now - e.meta.insertCycle;
        v.uses = e.meta.useCount;
        v.anchoredTrace = e.meta.anchorsTrace;
        victims.push_back(v);
        evict(e);
        ++flushedEntries_;
    }
    ++flushes_;
    return victims;
}

std::vector<uint64_t>
Dtb::residentResidencies(uint64_t now, int64_t asid_filter) const
{
    std::vector<uint64_t> residencies;
    for (const Entry &e : entries_) {
        if (!e.meta.valid)
            continue;
        if (asid_filter >= 0 &&
            e.meta.asid != static_cast<uint32_t>(asid_filter))
            continue;
        residencies.push_back(
            now > e.meta.insertCycle ? now - e.meta.insertCycle : 0);
    }
    return residencies;
}

void
Dtb::resetStats()
{
    hits_.reset();
    misses_.reset();
    inserts_.reset();
    evictions_.reset();
    rejects_.reset();
    overflowBlocks_.reset();
    flushes_.reset();
    flushedEntries_.reset();
    // Per-entry observability state restarts with the epoch: a
    // residency or use figure measured after the reset must not carry
    // lifetime from before it. Behavioral state (the translation, the
    // backedge counter, the anchor flag) is untouched.
    for (Entry &e : entries_) {
        if (e.meta.valid) {
            e.meta.useCount = 0;
            e.meta.insertCycle = 0;
        }
    }
}

void
Dtb::evict(Entry &entry)
{
    if (entry.meta.valid && entry.meta.units > 1)
        overflowFree_ += entry.meta.units - 1;
    entry.meta.reset();
    entry.code.clear();
}

void
Dtb::invalidateAll()
{
    for (Entry &e : entries_)
        evict(e);
}

} // namespace uhm
