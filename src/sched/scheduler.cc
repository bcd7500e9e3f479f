#include "sched/scheduler.hh"

#include <algorithm>
#include <cstdio>

#include "obs/registry.hh"
#include "support/flags.hh"
#include "support/logging.hh"

namespace uhm::sched
{

namespace
{

/** Zero-padded tenant counter namespace: "tenant.0007". */
std::string
tenantPrefix(uint32_t asid)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "tenant.%04u", asid);
    return buf;
}

} // anonymous namespace

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::RoundRobin:   return "rr";
      case Policy::Priority:     return "prio";
      case Policy::MissFeedback: return "feedback";
    }
    return "?";
}

bool
parsePolicy(const std::string &name, Policy &out)
{
    static constexpr Policy policies[] = {
        Policy::RoundRobin, Policy::Priority, Policy::MissFeedback};
    return parseByName(name, policies, policyName, out);
}

const char *
switchModeName(SwitchMode mode)
{
    switch (mode) {
      case SwitchMode::FlushOnSwitch: return "flush";
      case SwitchMode::TagAndShare:   return "tag";
    }
    return "?";
}

bool
parseSwitchMode(const std::string &name, SwitchMode &out)
{
    static constexpr SwitchMode modes[] = {SwitchMode::FlushOnSwitch,
                                           SwitchMode::TagAndShare};
    return parseByName(name, modes, switchModeName, out);
}

uint64_t
TenantResult::cpiPercentile(unsigned pct) const
{
    if (sliceCpiMilli.empty())
        return 0;
    std::vector<uint64_t> sorted = sliceCpiMilli;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = (sorted.size() - 1) * pct / 100;
    return sorted[idx];
}

Scheduler::Scheduler(const SchedConfig &config,
                     std::vector<TenantSpec> tenants)
    : config_(config), specs_(std::move(tenants)), dtb_(config.machine.dtb)
{
    uhm_assert(!specs_.empty(), "scheduler needs at least one tenant");
    uhm_assert(config_.quantumCycles >= 1, "zero scheduling quantum");
    if (config_.machine.kind != MachineKind::Dtb &&
        config_.machine.kind != MachineKind::Tiered) {
        fatal("tenant scheduling requires a DTB-dispatching machine "
              "kind (dtb or tiered), not '%s'",
              machineKindName(config_.machine.kind));
    }
    images_.reserve(specs_.size());
    machines_.reserve(specs_.size());
    for (const TenantSpec &spec : specs_) {
        uhm_assert(spec.priority >= 1, "tenant priority below one");
        images_.push_back(encodeDir(spec.program, config_.scheme));
        machines_.push_back(std::make_unique<Machine>(
            *images_.back(), config_.machine, &dtb_));
    }
    state_.assign(specs_.size(), TenantState{});
}

Scheduler::~Scheduler() = default;

size_t
Scheduler::pickNext(size_t current)
{
    size_t n = specs_.size();
    // A Priority tenant holds the machine for its remaining quanta.
    if (config_.policy == Policy::Priority && current < n &&
        !state_[current].finished && state_[current].quantaLeft > 0) {
        --state_[current].quantaLeft;
        return current;
    }
    size_t start = current >= n ? 0 : (current + 1) % n;
    for (size_t k = 0; k < n; ++k) {
        size_t c = (start + k) % n;
        if (state_[c].finished)
            continue;
        if (config_.policy == Policy::Priority)
            state_[c].quantaLeft = specs_[c].priority - 1;
        return c;
    }
    panic("pickNext with every tenant finished");
}

uint64_t
Scheduler::effectiveQuantum(size_t t) const
{
    uint64_t q = config_.quantumCycles;
    if (config_.policy != Policy::MissFeedback || !state_[t].ranBefore)
        return q;
    // A heavily missing previous slice means the tenant just paid the
    // cold-start translation storm; stretch the next quantum so the
    // warmed buffer is actually used. Integer thresholds keep this
    // deterministic: rate >= 1/4 -> 4x, >= 1/8 -> 2x.
    uint64_t hits = state_[t].lastSliceHits;
    uint64_t misses = state_[t].lastSliceMisses;
    uint64_t total = hits + misses;
    if (total == 0)
        return q;
    if (misses * 4 >= total)
        return q * 4;
    if (misses * 8 >= total)
        return q * 2;
    return q;
}

SchedResult
Scheduler::run()
{
    uhm_assert(!ran_, "Scheduler::run called twice");
    ran_ = true;
    size_t n = specs_.size();

    dtb_.invalidateAll();
    dtb_.resetStats();
    dtb_.setAsid(0);
    if (config_.profileEvents)
        tracer_.enable(config_.profileEventCapacity);

    SchedResult result;
    result.tenants.resize(n);
    for (size_t t = 0; t < n; ++t) {
        result.tenants[t].name = specs_[t].name;
        result.tenants[t].asid = static_cast<uint32_t>(t);
        machines_[t]->beginRun(specs_[t].input);
    }

    uint64_t global = 0;
    size_t current = SIZE_MAX;
    size_t finished_count = 0;

    while (finished_count < n) {
        size_t next = pickNext(current);
        if (next != current) {
            if (current != SIZE_MAX) {
                ++result.switches;
                if (config_.switchMode == SwitchMode::FlushOnSwitch) {
                    // Flush through the *outgoing* machine while the
                    // DTB's ASID is still its own, so residencies land
                    // in its histogram and its anchored traces die.
                    uint64_t before = dtb_.flushedEntries();
                    machines_[current]->flushDtb();
                    tracer_.record(obs::EventKind::DtbFlush, global,
                                   current,
                                   dtb_.flushedEntries() - before);
                }
            }
            dtb_.setAsid(static_cast<uint32_t>(next));
            tracer_.record(obs::EventKind::SchedSwitch, global, next);
        }
        current = next;

        Machine &m = *machines_[current];
        TenantState &st = state_[current];
        TenantResult &tr = result.tenants[current];

        uint64_t quantum = effectiveQuantum(current);
        // Re-anchor the machine's residency clock on the global one:
        // stamps it writes this slice are global cycles.
        m.setCycleBase(global - m.cyclesSoFar());

        uint64_t hits0 = dtb_.hits();
        uint64_t misses0 = dtb_.misses();
        uint64_t instrs0 = m.dirInstrsSoFar();
        uint64_t consumed = m.runSlice(quantum);
        global += consumed;

        uint64_t dh = dtb_.hits() - hits0;
        uint64_t dm = dtb_.misses() - misses0;
        tr.dtbHits += dh;
        tr.dtbMisses += dm;
        st.lastSliceHits = dh;
        st.lastSliceMisses = dm;
        st.ranBefore = true;
        ++tr.slices;
        uint64_t di = m.dirInstrsSoFar() - instrs0;
        if (di > 0)
            tr.sliceCpiMilli.push_back(consumed * 1000 / di);
        tracer_.record(obs::EventKind::SchedSlice, global, current,
                       consumed);

        if (m.finished()) {
            st.finished = true;
            ++finished_count;
            tr.finishedAtCycle = global;
            // The DTB's ASID is this tenant's, so the end-of-run
            // residency drain filters to its own entries.
            tr.run = m.finishRun();
        }
    }

    result.totalCycles = global;
    result.flushes = dtb_.flushes();
    result.flushedEntries = dtb_.flushedEntries();
    result.eventsSeen = tracer_.seen();
    result.eventsDropped = tracer_.dropped();
    result.events = tracer_.take();

    // Merged counter map: scheduler totals, the shared DTB, and one
    // zero-padded namespace per tenant.
    result.counters["sched.tenants"] = n;
    result.counters["sched.switches"] = result.switches;
    result.counters["sched.flushes"] = result.flushes;
    result.counters["sched.flushed_entries"] = result.flushedEntries;
    result.counters["sched.total_cycles"] = result.totalCycles;
    obs::Registry dtb_registry;
    dtb_.registerCounters(dtb_registry, "dtb");
    for (const auto &kv : dtb_registry.snapshot())
        result.counters[kv.first] = kv.second;
    for (const TenantResult &tr : result.tenants) {
        std::string prefix = tenantPrefix(tr.asid);
        result.counters[prefix + ".cycles"] = tr.run.cycles;
        result.counters[prefix + ".dir_instrs"] = tr.run.dirInstrs;
        result.counters[prefix + ".slices"] = tr.slices;
        result.counters[prefix + ".dtb_hits"] = tr.dtbHits;
        result.counters[prefix + ".dtb_misses"] = tr.dtbMisses;
        result.counters[prefix + ".finished_at_cycle"] =
            tr.finishedAtCycle;
        for (const auto &kv : tr.run.histograms)
            result.histograms[prefix + "." + kv.first] = kv.second;
        result.breakdown.fetch += tr.run.breakdown.fetch;
        result.breakdown.decode += tr.run.breakdown.decode;
        result.breakdown.stage += tr.run.breakdown.stage;
        result.breakdown.dispatch += tr.run.breakdown.dispatch;
        result.breakdown.semantic += tr.run.breakdown.semantic;
        result.breakdown.translate += tr.run.breakdown.translate;
        result.breakdown.translate2 += tr.run.breakdown.translate2;
    }
    return result;
}

SchedResult
runScheduled(const SchedConfig &config, std::vector<TenantSpec> tenants)
{
    Scheduler scheduler(config, std::move(tenants));
    return scheduler.run();
}

} // namespace uhm::sched
