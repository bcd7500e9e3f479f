/**
 * @file
 * Multi-programming (src/sched/ and the PR-6 lifecycle fixes): ASID
 * tagging and partitioning in the shared DTB, the flush-through-
 * eviction path and its trace-anchor coupling, residency accounting
 * for never-evicted entries, resetStats symmetry, and the tenant
 * scheduler's determinism and policy behavior.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/dtb.hh"
#include "dir/encoding.hh"
#include "hlr/compiler.hh"
#include "sched/scheduler.hh"
#include "uhm/machine.hh"

namespace uhm
{
namespace
{

/** A loop hot enough that the tier promotes it at low thresholds. */
const char *kHotLoop =
    "program t; var i, s; begin i := 400; s := 0; "
    "while i > 0 do s := s + i; i := i - 1; od; write s; end.";

/** A second program with a different answer, for tenant mixes. */
const char *kCountUp =
    "program u; var i, s; begin i := 0; s := 0; "
    "while i < 300 do s := s + 2; i := i + 1; od; write s; end.";

std::vector<ShortInstr>
tinyCode()
{
    return std::vector<ShortInstr>(1);
}

/** Deterministic serialization of a scheduler run, for byte-compares. */
std::string
serialize(const sched::SchedResult &r)
{
    std::ostringstream os;
    for (const auto &kv : r.counters)
        os << kv.first << "=" << kv.second << "\n";
    for (const auto &kv : r.histograms)
        os << kv.first << " n=" << kv.second.count
           << " min=" << kv.second.min << " max=" << kv.second.max
           << "\n";
    for (const sched::TenantResult &t : r.tenants) {
        os << t.name << ":";
        for (int64_t v : t.run.output)
            os << " " << v;
        os << "\n";
    }
    return os.str();
}

std::vector<sched::TenantSpec>
mixedTenants(size_t n)
{
    std::vector<sched::TenantSpec> tenants;
    for (size_t i = 0; i < n; ++i) {
        sched::TenantSpec spec;
        spec.name = "t" + std::to_string(i);
        spec.program =
            hlr::compileSource(i % 2 == 0 ? kHotLoop : kCountUp);
        spec.priority = 1 + static_cast<uint32_t>(i % 3);
        tenants.push_back(std::move(spec));
    }
    return tenants;
}

sched::SchedConfig
schedConfig(sched::SwitchMode mode, MachineKind kind = MachineKind::Dtb)
{
    sched::SchedConfig sc;
    sc.switchMode = mode;
    sc.quantumCycles = 1000;
    sc.machine.kind = kind;
    return sc;
}

// ---- ASID tagging and partitioning -----------------------------------------

TEST(DtbAsid, EntriesMatchOnlyTheirAddressSpace)
{
    Dtb dtb(DtbConfig{});
    dtb.setAsid(0);
    dtb.insert(100, tinyCode());
    EXPECT_NE(dtb.lookup(100), Dtb::npos);

    dtb.setAsid(1);
    EXPECT_EQ(dtb.lookup(100), Dtb::npos); // other tenant's entry
    dtb.insert(100, tinyCode());       // same tag, own space
    EXPECT_NE(dtb.lookup(100), Dtb::npos);

    dtb.setAsid(0);
    EXPECT_NE(dtb.lookup(100), Dtb::npos); // original survives, still matches
}

TEST(DtbAsid, PartitionedSetSpacesAreDisjoint)
{
    DtbConfig cfg;
    cfg.numPartitions = 4;
    Dtb dtb(cfg);
    uint64_t spp = dtb.numSets() / 4;
    ASSERT_GE(spp, 1u);
    for (uint32_t asid = 0; asid < 6; ++asid) {
        dtb.setAsid(asid);
        uint64_t lo = (asid % 4) * spp;
        for (uint64_t addr = 0; addr < 4096; addr += 37) {
            uint64_t set = dtb.setOf(addr);
            EXPECT_GE(set, lo);
            EXPECT_LT(set, lo + spp);
        }
    }
}

// ---- flush through the eviction path ---------------------------------------

TEST(DtbFlush, ReportsEveryVictimAndEmptiesTheBuffer)
{
    Dtb dtb(DtbConfig{});
    dtb.insert(100, tinyCode(), 10);
    dtb.insert(200, tinyCode(), 20);
    ASSERT_TRUE(dtb.markTraceAnchor(200));

    std::vector<Dtb::FlushedEntry> victims = dtb.flush(50);
    ASSERT_EQ(victims.size(), 2u);
    bool saw_anchor = false;
    for (const Dtb::FlushedEntry &v : victims) {
        if (v.tag == 200) {
            saw_anchor = true;
            EXPECT_TRUE(v.anchoredTrace);
            EXPECT_EQ(v.residency, 30u);
        } else {
            EXPECT_EQ(v.tag, 100u);
            EXPECT_FALSE(v.anchoredTrace);
            EXPECT_EQ(v.residency, 40u);
        }
    }
    EXPECT_TRUE(saw_anchor);
    EXPECT_EQ(dtb.lookup(100), Dtb::npos);
    EXPECT_EQ(dtb.lookup(200), Dtb::npos);
    // Flush accounting is distinct from capacity-eviction accounting.
    EXPECT_EQ(dtb.flushes(), 1u);
    EXPECT_EQ(dtb.flushedEntries(), 2u);
    EXPECT_EQ(dtb.evictions(), 0u);
}

TEST(DtbFlush, FlushCrossesAsidBoundaries)
{
    Dtb dtb(DtbConfig{});
    dtb.setAsid(0);
    dtb.insert(100, tinyCode());
    dtb.setAsid(1);
    dtb.insert(300, tinyCode());
    std::vector<Dtb::FlushedEntry> victims = dtb.flush(0);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_NE(victims[0].asid, victims[1].asid);
}

TEST(TieredFlush, FlushThenDispatchMatchesAnUnflushedRun)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Tiered;
    cfg.tier.hotThreshold = 2; // traces form early, so flushes hit them

    Machine ref(*image, cfg);
    RunResult want = ref.run();

    // Interleave slices with full flushes: every resident translation
    // dies, including trace anchors — stale traces must never dispatch.
    Machine m(*image, cfg);
    m.beginRun();
    for (int i = 0; i < 20 && !m.finished(); ++i) {
        m.runSlice(500);
        m.flushDtb();
    }
    m.runSlice(UINT64_MAX);
    RunResult got = m.finishRun();

    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.dirInstrs, want.dirInstrs);
    EXPECT_GT(got.counters.at("dtb.flushes"), 0u);
    // Flushing destroys warmth; the flushed run cannot be cheaper.
    EXPECT_GE(got.cycles, want.cycles);
}

// ---- residency accounting (never-evicted entries) --------------------------

TEST(DtbResidency, NeverEvictedEntriesAreDrainedAtHalt)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Dtb;
    cfg.dtb.capacityBytes = 1 << 16; // working set fits: no evictions
    Machine m(*image, cfg);
    RunResult r = m.run();

    EXPECT_EQ(r.counters.at("dtb.evictions"), 0u);
    // Before the halt-time drain this histogram was empty: residency
    // was only ever recorded for eviction victims.
    ASSERT_EQ(r.histograms.count("dtb.residency_cycles"), 1u);
    EXPECT_EQ(r.histograms.at("dtb.residency_cycles").count,
              r.counters.at("dtb.inserts"));
    EXPECT_GT(r.histograms.at("dtb.residency_cycles").count, 0u);
}

// ---- resetStats symmetry ---------------------------------------------------

TEST(ResetStats, SecondRunIsIdenticalToAFreshMachine)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    for (MachineKind kind :
         {MachineKind::Dtb, MachineKind::Dtb2, MachineKind::Tiered}) {
        MachineConfig cfg;
        cfg.kind = kind;
        Machine fresh(*image, cfg);
        RunResult want = fresh.run();

        Machine reused(*image, cfg);
        reused.run();
        RunResult got = reused.run(); // full reset between runs

        EXPECT_EQ(got.cycles, want.cycles) << machineKindName(kind);
        EXPECT_EQ(got.output, want.output) << machineKindName(kind);
        EXPECT_EQ(got.counters, want.counters) << machineKindName(kind);
        for (const auto &kv : want.histograms) {
            ASSERT_EQ(got.histograms.count(kv.first), 1u)
                << machineKindName(kind) << " " << kv.first;
            EXPECT_EQ(got.histograms.at(kv.first).count,
                      kv.second.count)
                << machineKindName(kind) << " " << kv.first;
        }
    }
}

TEST(ResetStats, DtbCountersClearButResidencySurvives)
{
    Dtb dtb(DtbConfig{});
    dtb.insert(100, tinyCode());
    dtb.lookup(100);
    dtb.lookup(999);
    dtb.resetStats();
    EXPECT_EQ(dtb.hits(), 0u);
    EXPECT_EQ(dtb.misses(), 0u);
    EXPECT_EQ(dtb.flushes(), 0u);
    EXPECT_EQ(dtb.flushedEntries(), 0u);
    EXPECT_EQ(dtb.inserts(), 0u);
    // The translation itself is behavioral state, not statistics.
    EXPECT_NE(dtb.lookup(100), Dtb::npos);
}

// ---- the tenant scheduler --------------------------------------------------

TEST(Scheduler, SingleTenantMatchesAPlainRun)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Dtb;
    Machine m(*image, cfg);
    RunResult want = m.run();

    sched::SchedConfig sc = schedConfig(sched::SwitchMode::TagAndShare);
    sched::SchedResult sr = sched::runScheduled(sc, mixedTenants(1));
    ASSERT_EQ(sr.tenants.size(), 1u);
    EXPECT_EQ(sr.tenants[0].run.output, want.output);
    EXPECT_EQ(sr.tenants[0].run.cycles, want.cycles);
    EXPECT_EQ(sr.totalCycles, want.cycles);
    EXPECT_EQ(sr.switches, 0u);
}

TEST(Scheduler, TagAndFlushAgreeArchitecturally)
{
    sched::SchedResult tag = sched::runScheduled(
        schedConfig(sched::SwitchMode::TagAndShare), mixedTenants(4));
    sched::SchedResult flush = sched::runScheduled(
        schedConfig(sched::SwitchMode::FlushOnSwitch), mixedTenants(4));

    ASSERT_EQ(tag.tenants.size(), flush.tenants.size());
    for (size_t i = 0; i < tag.tenants.size(); ++i) {
        // What each tenant computes is identical; only the translation
        // timing differs.
        EXPECT_EQ(tag.tenants[i].run.output,
                  flush.tenants[i].run.output);
        EXPECT_EQ(tag.tenants[i].run.dirInstrs,
                  flush.tenants[i].run.dirInstrs);
    }
    EXPECT_EQ(flush.flushes, flush.switches);
    EXPECT_EQ(tag.flushes, 0u);
    // Cold-starting every slice costs real (simulated) cycles.
    EXPECT_GT(flush.totalCycles, tag.totalCycles);
}

TEST(Scheduler, MergesAreByteIdenticalAcrossJobCounts)
{
    // The bench fans whole scheduler runs over worker threads; each
    // run is single-threaded and integer-deterministic, so the merged
    // serialization must not depend on the job count.
    auto runAll = [](unsigned jobs) {
        bench::SweepRunner runner(jobs);
        std::vector<std::string> out = runner.map(4, [](size_t i) {
            sched::SchedConfig sc = schedConfig(
                i % 2 == 0 ? sched::SwitchMode::TagAndShare
                           : sched::SwitchMode::FlushOnSwitch);
            return serialize(
                sched::runScheduled(sc, mixedTenants(4)));
        });
        std::string merged;
        for (const std::string &s : out)
            merged += s;
        return merged;
    };
    EXPECT_EQ(runAll(1), runAll(8));
}

TEST(Scheduler, PriorityHoldsTheMachineForConsecutiveQuanta)
{
    std::vector<sched::TenantSpec> tenants = mixedTenants(4);
    sched::SchedConfig rr = schedConfig(sched::SwitchMode::TagAndShare);
    rr.policy = sched::Policy::RoundRobin;
    sched::SchedConfig prio = rr;
    prio.policy = sched::Policy::Priority;

    sched::SchedResult r_rr = sched::runScheduled(rr, tenants);
    sched::SchedResult r_prio = sched::runScheduled(prio, tenants);
    // Priorities 1..3 batch quanta, so strictly fewer transitions.
    EXPECT_LT(r_prio.switches, r_rr.switches);
    for (size_t i = 0; i < tenants.size(); ++i)
        EXPECT_EQ(r_prio.tenants[i].run.output,
                  r_rr.tenants[i].run.output);
}

TEST(Scheduler, MissFeedbackStretchesColdQuanta)
{
    std::vector<sched::TenantSpec> tenants = mixedTenants(4);
    sched::SchedConfig rr = schedConfig(sched::SwitchMode::FlushOnSwitch);
    sched::SchedConfig fb = rr;
    fb.policy = sched::Policy::MissFeedback;

    sched::SchedResult r_rr = sched::runScheduled(rr, tenants);
    sched::SchedResult r_fb = sched::runScheduled(fb, tenants);
    // Flush mode makes every slice start cold, so feedback stretches
    // quanta and the tenants need fewer slices overall.
    EXPECT_LT(r_fb.switches, r_rr.switches);
    for (size_t i = 0; i < tenants.size(); ++i)
        EXPECT_EQ(r_fb.tenants[i].run.output,
                  r_rr.tenants[i].run.output);
}

TEST(Scheduler, TieredTenantsFormAndInvalidateTracesSafely)
{
    DirProgram prog = hlr::compileSource(kHotLoop);
    auto image = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Tiered;
    cfg.tier.hotThreshold = 2;
    Machine solo(*image, cfg);
    RunResult want = solo.run();

    for (sched::SwitchMode mode : {sched::SwitchMode::TagAndShare,
                                   sched::SwitchMode::FlushOnSwitch}) {
        sched::SchedConfig sc = schedConfig(mode, MachineKind::Tiered);
        sc.machine.tier.hotThreshold = 2;
        std::vector<sched::TenantSpec> tenants;
        for (size_t i = 0; i < 3; ++i) {
            sched::TenantSpec spec;
            spec.name = "t" + std::to_string(i);
            spec.program = prog;
            tenants.push_back(std::move(spec));
        }
        sched::SchedResult sr =
            sched::runScheduled(sc, std::move(tenants));
        for (const sched::TenantResult &t : sr.tenants) {
            EXPECT_EQ(t.run.output, want.output)
                << sched::switchModeName(mode);
            EXPECT_EQ(t.run.dirInstrs, want.dirInstrs)
                << sched::switchModeName(mode);
        }
        if (mode == sched::SwitchMode::FlushOnSwitch)
            EXPECT_GT(sr.flushes, 0u);
    }
}

TEST(Scheduler, PartitionedTenantsCannotEvictEachOther)
{
    std::vector<sched::TenantSpec> tenants = mixedTenants(4);
    sched::SchedConfig shared =
        schedConfig(sched::SwitchMode::TagAndShare);
    sched::SchedConfig part = shared;
    part.machine.dtb.numPartitions = 4;

    sched::SchedResult r_shared = sched::runScheduled(shared, tenants);
    sched::SchedResult r_part = sched::runScheduled(part, tenants);
    for (size_t i = 0; i < tenants.size(); ++i)
        EXPECT_EQ(r_part.tenants[i].run.output,
                  r_shared.tenants[i].run.output);
    // With a private region each, cross-tenant interference is gone:
    // no tenant's miss count can exceed its shared-mode count.
    for (size_t i = 0; i < tenants.size(); ++i)
        EXPECT_LE(r_part.tenants[i].dtbMisses,
                  r_shared.tenants[i].dtbMisses);
}

} // namespace
} // namespace uhm
