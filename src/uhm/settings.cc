#include "uhm/settings.hh"

#include <cstdio>

#include "support/flags.hh"
#include "support/logging.hh"

namespace uhm
{

MachineConfig
MachineSettings::toConfig() const
{
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.dtb.capacityBytes = dtbBytes;
    cfg.dtb.assoc = assoc;
    cfg.icache.capacityBytes = dtbBytes;
    cfg.icache.assoc = assoc;
    cfg.tier.hotThreshold = tierThreshold;
    cfg.tier.traceCap = traceCap;
    cfg.traceCache.capacityBytes = traceBytes;
    cfg.sampleIntervalCycles = sampleInterval;
    return cfg;
}

std::string
MachineSettings::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "m=%s;e=%s;dtb=%llu;assoc=%u;tt=%u;tc=%zu;"
                  "tb=%llu;si=%llu",
                  machineKindName(kind), encodingName(scheme),
                  static_cast<unsigned long long>(dtbBytes), assoc,
                  tierThreshold, traceCap,
                  static_cast<unsigned long long>(traceBytes),
                  static_cast<unsigned long long>(sampleInterval));
    return buf;
}

void
checkTierOnly(const MachineSettings &settings, const std::string &given)
{
    if (!given.empty() && settings.kind != MachineKind::Tiered)
        fatal("%s only applies to the tiered machine (got '%s')",
              given.c_str(), machineKindName(settings.kind));
}

MachineSettings
takeSettingsFlags(std::vector<std::string> &args)
{
    MachineSettings s;
    std::string tier_flag;
    std::vector<std::string> rest;
    for (const std::string &arg : args) {
        const size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        // Never wrapped: --assoc=2^32 must not mean "fully associative".
        auto uint = [&](uint64_t max) {
            return parseUintFlag(flag.c_str(), value, 0, max);
        };
        if (eq == std::string::npos) {
            rest.push_back(arg);
        } else if (flag == "--machine") {
            if (!parseMachineKind(value, s.kind))
                fatal("unknown machine kind '%s'", value.c_str());
        } else if (flag == "--encoding") {
            if (!parseEncodingScheme(value, s.scheme))
                fatal("unknown encoding '%s'", value.c_str());
        } else if (flag == "--dtb-bytes") {
            s.dtbBytes = uint(UINT64_MAX);
        } else if (flag == "--assoc") {
            s.assoc = static_cast<unsigned>(uint(UINT32_MAX));
        } else if (flag == "--tier-threshold") {
            s.tierThreshold = static_cast<uint32_t>(uint(UINT32_MAX));
            tier_flag = flag;
        } else if (flag == "--trace-cap") {
            s.traceCap = uint(UINT64_MAX);
            tier_flag = flag;
        } else if (flag == "--trace-bytes") {
            s.traceBytes = uint(UINT64_MAX);
            tier_flag = flag;
        } else if (flag == "--sample-interval") {
            s.sampleInterval = uint(UINT64_MAX);
        } else {
            rest.push_back(arg);
        }
    }
    checkTierOnly(s, tier_flag);
    args = std::move(rest);
    return s;
}

} // namespace uhm
