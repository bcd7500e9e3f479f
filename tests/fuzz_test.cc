/**
 * @file
 * Randomized differential tests: generated Contour programs must
 * behave identically under direct HLR interpretation and under every
 * encoding x machine-organization combination, and the machine's run
 * loops, events off and on, must agree with the stepped reference
 * engine on every simulated observable and on the event stream.
 */

#include <gtest/gtest.h>

#include <string>

#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "support/logging.hh"
#include "stepped_reference.hh"
#include "support/rng.hh"
#include "uhm/machine.hh"
#include "workload/fuzz.hh"

namespace uhm
{
namespace
{

std::vector<int64_t>
fuzzInput(uint64_t seed)
{
    Rng rng(seed * 131 + 7);
    std::vector<int64_t> input;
    for (int i = 0; i < 16; ++i)
        input.push_back(rng.range(-50, 50));
    return input;
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzDifferential, GeneratedProgramCompiles)
{
    workload::FuzzConfig cfg;
    cfg.seed = GetParam();
    std::string source = workload::generateRandomContour(cfg);
    SCOPED_TRACE(source);
    DirProgram prog = hlr::compileSource(source);
    EXPECT_GT(prog.size(), 3u);
    EXPECT_NO_THROW(prog.validate());
}

TEST_P(FuzzDifferential, HlrAndAllMachinePathsAgree)
{
    workload::FuzzConfig cfg;
    cfg.seed = GetParam();
    std::string source = workload::generateRandomContour(cfg);
    SCOPED_TRACE(source);
    std::vector<int64_t> input = fuzzInput(cfg.seed);

    hlr::AstProgram ast = hlr::parse(source);
    std::vector<int64_t> reference =
        hlr::interpretHlr(ast, input).output;
    DirProgram prog = hlr::compile(ast);

    for (EncodingScheme scheme : {EncodingScheme::Packed,
                                  EncodingScheme::Huffman,
                                  EncodingScheme::Quantized}) {
        auto image = encodeDir(prog, scheme);
        for (MachineKind kind : {MachineKind::Conventional,
                                 MachineKind::Cached, MachineKind::Dtb,
                                 MachineKind::Dtb2,
                                 MachineKind::Tiered}) {
            SCOPED_TRACE(std::string(encodingName(scheme)) + " / " +
                         machineKindName(kind));
            for (bool events : {false, true}) {
                SCOPED_TRACE(events ? "events on" : "events off");
                MachineConfig mc;
                mc.kind = kind;
                mc.profileEvents = events;
                RunResult fast = Machine(*image, mc).run(input);
                RunResult st = runStepped(*image, mc, input);
                ASSERT_EQ(st.output, reference);
                ASSERT_EQ(fast.output, reference);
                EXPECT_EQ(st.cycles, fast.cycles);
                EXPECT_EQ(st.breakdown.fetch, fast.breakdown.fetch);
                EXPECT_EQ(st.breakdown.decode, fast.breakdown.decode);
                EXPECT_EQ(st.breakdown.stage, fast.breakdown.stage);
                EXPECT_EQ(st.breakdown.dispatch, fast.breakdown.dispatch);
                EXPECT_EQ(st.breakdown.semantic, fast.breakdown.semantic);
                EXPECT_EQ(st.breakdown.translate,
                          fast.breakdown.translate);
                EXPECT_EQ(st.breakdown.translate2,
                          fast.breakdown.translate2);
                EXPECT_EQ(st.counters, fast.counters);
                EXPECT_TRUE(st.events == fast.events);
            }
        }
    }
}

TEST_P(FuzzDifferential, DeterministicGeneration)
{
    workload::FuzzConfig cfg;
    cfg.seed = GetParam();
    EXPECT_EQ(workload::generateRandomContour(cfg),
              workload::generateRandomContour(cfg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(FuzzGenerator, BiggerKnobsMakeBiggerPrograms)
{
    workload::FuzzConfig small_cfg;
    small_cfg.seed = 5;
    small_cfg.numProcs = 1;
    small_cfg.stmtsPerBlock = 3;
    workload::FuzzConfig big_cfg;
    big_cfg.seed = 5;
    big_cfg.numProcs = 6;
    big_cfg.stmtsPerBlock = 12;
    EXPECT_LT(workload::generateRandomContour(small_cfg).size(),
              workload::generateRandomContour(big_cfg).size());
}

} // anonymous namespace
} // namespace uhm
