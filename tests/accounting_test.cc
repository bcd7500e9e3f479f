/**
 * @file
 * Precision tests of the machine's cycle accounting: the charges the
 * simulator reports must be *derivable* from first principles — the
 * address trace, the image's bit layout and the timing parameters —
 * not merely plausible.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/translator.hh"
#include "hlr/compiler.hh"
#include "support/logging.hh"
#include "uhm/machine.hh"
#include "workload/samples.hh"

namespace uhm
{
namespace
{

MachineConfig
tracedConfig(MachineKind kind)
{
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.captureAddressTrace = true;
    return cfg;
}

class AccountingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = hlr::compileSource(
            workload::sampleByName("collatz").source);
        image_ = encodeDir(prog_, EncodingScheme::Huffman);
    }

    DirProgram prog_;
    std::unique_ptr<EncodedDir> image_;
};

TEST_F(AccountingFixture, ConventionalFetchDerivesFromTrace)
{
    MachineConfig cfg = tracedConfig(MachineKind::Conventional);
    Machine machine(*image_, cfg);
    RunResult r = machine.run();

    // fetch = sum over executed instructions of ceil(bits/64) * tau2.
    uint64_t expected = 0;
    for (uint64_t addr : r.addressTrace) {
        DecodeResult res = image_->decodeAt(addr);
        uint64_t bits = res.nextBitAddr - addr;
        expected += std::max<uint64_t>(1, (bits + 63) / 64) *
                    cfg.timing.tau2;
    }
    EXPECT_EQ(r.breakdown.fetch, expected);
}

TEST_F(AccountingFixture, ConventionalDecodeDerivesFromTrace)
{
    MachineConfig cfg = tracedConfig(MachineKind::Conventional);
    Machine machine(*image_, cfg);
    RunResult r = machine.run();

    uint64_t expected = 0;
    for (uint64_t addr : r.addressTrace)
        expected += cfg.costs.decodeCycles(image_->decodeAt(addr).cost);
    EXPECT_EQ(r.breakdown.decode, expected);
}

TEST_F(AccountingFixture, ExtraDecodePaddingChargesExactly)
{
    MachineConfig base = tracedConfig(MachineKind::Conventional);
    MachineConfig padded = base;
    padded.costs.extraDecodeCycles = 13;

    Machine m1(*image_, base);
    Machine m2(*image_, padded);
    RunResult r1 = m1.run();
    RunResult r2 = m2.run();
    EXPECT_EQ(r2.breakdown.decode - r1.breakdown.decode,
              13 * r1.dirInstrs);
    // Nothing else moves.
    EXPECT_EQ(r1.breakdown.fetch, r2.breakdown.fetch);
    EXPECT_EQ(r1.breakdown.semantic, r2.breakdown.semantic);
}

TEST_F(AccountingFixture, DtbDispatchAccountsLookupsAndShortFetches)
{
    MachineConfig cfg = tracedConfig(MachineKind::Dtb);
    Machine machine(*image_, cfg);
    RunResult r = machine.run();

    // dispatch = tauD per INTERP lookup + tauD per short-instr fetch
    //          + trap cycles per miss + tau1 per INTERP-stack pop.
    uint64_t lookups = r.dirInstrs * cfg.timing.tauD;
    uint64_t fetches = r.counter("machine.short_instrs") * cfg.timing.tauD;
    uint64_t traps = r.counter("dtb.misses") * cfg.trapCycles;
    uint64_t slack = r.breakdown.dispatch - lookups - fetches - traps;
    // The remainder is exactly the INTERP-stack pops (one level-1 read
    // each); bounded by the number of control transfers.
    EXPECT_LT(slack, r.dirInstrs * cfg.timing.tau1);
}

TEST_F(AccountingFixture, TranslateChargesPerEmittedShortInstr)
{
    MachineConfig cfg = tracedConfig(MachineKind::Dtb);
    Machine machine(*image_, cfg);
    RunResult r = machine.run();

    // Every miss translates once; translate = sum over misses of
    // len * (1 + tauD).
    DynamicTranslator translator(*image_);
    std::set<uint64_t> missed;
    uint64_t expected = 0;
    // Replay: first touch of each address is the (only) miss for this
    // big-enough DTB.
    for (uint64_t addr : r.addressTrace) {
        if (missed.insert(addr).second) {
            expected += translator.translate(addr).code.size() *
                        (1 + cfg.timing.tauD);
        }
    }
    EXPECT_EQ(r.counter("dtb.misses"), missed.size());
    EXPECT_EQ(r.breakdown.translate, expected);
}

TEST_F(AccountingFixture, SemanticCyclesScaleWithTau1)
{
    MachineConfig slow = tracedConfig(MachineKind::Conventional);
    slow.timing.tau1 = 3;
    Machine m1(*image_, tracedConfig(MachineKind::Conventional));
    Machine m2(*image_, slow);
    RunResult r1 = m1.run();
    RunResult r2 = m2.run();
    // Micro-instruction fetches and stack references triple; data
    // references to level 2 do not.
    EXPECT_GT(r2.breakdown.semantic, r1.breakdown.semantic);
    EXPECT_LT(r2.breakdown.semantic, 3 * r1.breakdown.semantic);
}

TEST_F(AccountingFixture, CachedFetchBoundedByExtremes)
{
    MachineConfig cfg = tracedConfig(MachineKind::Cached);
    Machine machine(*image_, cfg);
    RunResult r = machine.run();

    uint64_t refs = r.counter("machine.dir_fetch_refs");
    // Every reference costs between tauD (hit) and tau2 (miss).
    EXPECT_GE(r.breakdown.fetch, refs * cfg.timing.tauD);
    EXPECT_LE(r.breakdown.fetch, refs * cfg.timing.tau2);
    // And the exact value follows from the hit/miss counts.
    uint64_t hits = r.counter("icache.hits");
    uint64_t misses = r.counter("icache.misses");
    EXPECT_EQ(refs, hits + misses);
    EXPECT_EQ(r.breakdown.fetch,
              hits * cfg.timing.tauD + misses * cfg.timing.tau2);
}

TEST_F(AccountingFixture, AddressTraceIdenticalAcrossMachineKinds)
{
    std::vector<uint64_t> reference;
    for (MachineKind kind : {MachineKind::Conventional,
                             MachineKind::Cached, MachineKind::Dtb,
                             MachineKind::Dtb2, MachineKind::Tiered}) {
        Machine machine(*image_, tracedConfig(kind));
        RunResult r = machine.run();
        if (reference.empty())
            reference = r.addressTrace;
        else
            EXPECT_EQ(r.addressTrace, reference)
                << machineKindName(kind);
    }
}

TEST_F(AccountingFixture, TimingParametersScaleFetchLinearly)
{
    MachineConfig cfg = tracedConfig(MachineKind::Conventional);
    Machine m1(*image_, cfg);
    RunResult r1 = m1.run();

    cfg.timing.tau2 = 20;
    Machine m2(*image_, cfg);
    RunResult r2 = m2.run();
    EXPECT_EQ(r2.breakdown.fetch, 2 * r1.breakdown.fetch);
}

} // anonymous namespace
} // namespace uhm
