/**
 * @file
 * Tests of the machine settings (src/uhm/settings.hh): the one
 * `--flag=value` parser both uhm_cli subcommands use, the tier-only
 * rule, the name parsers, and the one mapping to a MachineConfig.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "support/flags.hh"
#include "support/logging.hh"
#include "uhm/settings.hh"

namespace uhm
{
namespace
{

/** Parse @p args, each of which must be a settings flag. */
MachineSettings
parsed(std::vector<std::string> args)
{
    const MachineSettings s = takeSettingsFlags(args);
    EXPECT_TRUE(args.empty());
    return s;
}

/** The FatalError message of @p fn, empty when it does not throw. */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(SettingsFlags, EachFlagLandsInItsField)
{
    const MachineSettings s = parsed(
        {"--machine=tiered", "--encoding=packed", "--dtb-bytes=512",
         "--assoc=2", "--tier-threshold=3", "--trace-cap=32",
         "--trace-bytes=1024", "--sample-interval=4096"});
    EXPECT_EQ(s.kind, MachineKind::Tiered);
    EXPECT_EQ(s.scheme, EncodingScheme::Packed);
    EXPECT_EQ(s.dtbBytes, 512u);
    EXPECT_EQ(s.assoc, 2u);
    EXPECT_EQ(s.tierThreshold, 3u);
    EXPECT_EQ(s.traceCap, 32u);
    EXPECT_EQ(s.traceBytes, 1024u);
    EXPECT_EQ(s.sampleInterval, 4096u);
}

TEST(SettingsFlags, OtherArgumentsAreLeftToTheCaller)
{
    const std::vector<std::string> others = {
        "fib",           "--jobs=2",           "--input=1,2", "--machine",
        "--out=x.jsonl", "--machine-kind=dtb", "dtb_bytes=512"};
    std::vector<std::string> args = others;
    args.insert(args.begin() + 2, "--assoc=2");
    args.push_back("--machine=cached");
    const MachineSettings s = takeSettingsFlags(args);
    EXPECT_EQ(args, others); // in order
    EXPECT_EQ(s.kind, MachineKind::Cached);
    EXPECT_EQ(s.assoc, 2u);
}

TEST(SettingsFlags, MalformedValuesKeepTheFlagErrors)
{
    // Each numeric flag fails exactly as parseUintFlag does for it; the
    // narrow ones do not wrap 2^32 to 0 ("fully associative").
    struct Case
    {
        const char *flag;
        uint64_t max;
        const char *bad;
    };
    std::vector<Case> cases = {{"--assoc", UINT32_MAX, "4294967296"},
                               {"--tier-threshold", UINT32_MAX,
                                "4294967296"}};
    for (const char *flag : {"--dtb-bytes", "--assoc", "--tier-threshold",
                             "--trace-cap", "--trace-bytes",
                             "--sample-interval"}) {
        const uint64_t max = std::string(flag) == "--assoc" ||
                std::string(flag) == "--tier-threshold" ?
            UINT32_MAX : UINT64_MAX;
        for (const char *bad : {"-1", "12x", ""})
            cases.push_back({flag, max, bad});
    }
    for (const Case &c : cases) {
        const std::string arg = std::string(c.flag) + "=" + c.bad;
        SCOPED_TRACE(arg);
        const std::string want =
            fatalMessage([&] { parseUintFlag(c.flag, c.bad, 0, c.max); });
        ASSERT_FALSE(want.empty());
        EXPECT_EQ(fatalMessage([&] { parsed({arg}); }), want);
    }
    EXPECT_EQ(fatalMessage([] { parsed({"--machine=dtb3"}); }),
              "unknown machine kind 'dtb3'");
    EXPECT_EQ(fatalMessage([] { parsed({"--encoding=zip"}); }),
              "unknown encoding 'zip'");
}

TEST(SettingsFlags, TierFlagsNeedTheTieredMachine)
{
    for (const char *flag :
         {"--tier-threshold=4", "--trace-cap=32", "--trace-bytes=1024"}) {
        SCOPED_TRACE(flag);
        const std::string name =
            std::string(flag).substr(0, std::string(flag).find('='));
        for (MachineKind kind : {MachineKind::Dtb, MachineKind::Cached}) {
            const std::string machine =
                std::string("--machine=") + machineKindName(kind);
            MachineSettings given;
            given.kind = kind;
            // The message is the rule's own, naming the flag given.
            const std::string err =
                fatalMessage([&] { parsed({machine, flag}); });
            EXPECT_EQ(err, fatalMessage([&] { checkTierOnly(given, name); }));
            EXPECT_EQ(err, name + " only applies to the tiered machine "
                                  "(got '" + machineKindName(kind) + "')");
        }
        // The machine may come before or after the tier flag.
        EXPECT_EQ(parsed({flag, "--machine=tiered"}).kind,
                  MachineKind::Tiered);
        EXPECT_EQ(parsed({"--machine=tiered", flag}).kind,
                  MachineKind::Tiered);
    }
    EXPECT_EQ(fatalMessage([] { checkTierOnly(MachineSettings{}, ""); }),
              "");
}

TEST(MachineSettings, DefaultsAreTheMachineConfigDefaults)
{
    // Every sweep point gets toConfig(); the golden sweep reports were
    // recorded on a default MachineConfig plus the kind.
    const MachineConfig want;
    const MachineConfig got = MachineSettings{}.toConfig();
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.dtb.capacityBytes, want.dtb.capacityBytes);
    EXPECT_EQ(got.dtb.assoc, want.dtb.assoc);
    EXPECT_EQ(got.icache.capacityBytes, want.icache.capacityBytes);
    EXPECT_EQ(got.icache.assoc, want.icache.assoc);
    EXPECT_EQ(got.tier.hotThreshold, want.tier.hotThreshold);
    EXPECT_EQ(got.tier.traceCap, want.tier.traceCap);
    EXPECT_EQ(got.traceCache.capacityBytes,
              want.traceCache.capacityBytes);
    EXPECT_EQ(got.sampleIntervalCycles, want.sampleIntervalCycles);
}

TEST(MachineSettings, ToConfigCarriesEverySetting)
{
    MachineSettings s;
    s.kind = MachineKind::Cached;
    s.dtbBytes = 512;
    s.assoc = 1;
    s.tierThreshold = 3;
    s.traceCap = 32;
    s.traceBytes = 1024;
    s.sampleInterval = 100;
    const MachineConfig cfg = s.toConfig();
    EXPECT_EQ(cfg.kind, MachineKind::Cached);
    EXPECT_EQ(cfg.dtb.capacityBytes, 512u);
    EXPECT_EQ(cfg.dtb.assoc, 1u);
    EXPECT_EQ(cfg.icache.capacityBytes, 512u);
    EXPECT_EQ(cfg.icache.assoc, 1u);
    EXPECT_EQ(cfg.tier.hotThreshold, 3u);
    EXPECT_EQ(cfg.tier.traceCap, 32u);
    EXPECT_EQ(cfg.traceCache.capacityBytes, 1024u);
    EXPECT_EQ(cfg.sampleIntervalCycles, 100u);
}

TEST(MachineSettings, NameParsersInvertTheNames)
{
    for (MachineKind kind :
         {MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
          MachineKind::Dtb2, MachineKind::Tiered}) {
        MachineKind out = MachineKind::Dtb;
        EXPECT_TRUE(parseMachineKind(machineKindName(kind), out));
        EXPECT_EQ(out, kind);
    }
    for (EncodingScheme scheme : allEncodingSchemes()) {
        EncodingScheme out = EncodingScheme::Huffman;
        EXPECT_TRUE(parseEncodingScheme(encodingName(scheme), out));
        EXPECT_EQ(out, scheme);
    }
    MachineKind kind = MachineKind::Dtb;
    EncodingScheme scheme = EncodingScheme::Huffman;
    EXPECT_FALSE(parseMachineKind("DTB", kind));
    EXPECT_FALSE(parseEncodingScheme("", scheme));
}

} // anonymous namespace
} // namespace uhm
