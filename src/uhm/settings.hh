/**
 * @file
 * The eight machine settings a user may set from outside, and the one
 * path from them to a MachineConfig.
 *
 * They are the machine kind, the DIR encoding, the DTB size and ways
 * (the icache takes the same two), the tiered machine's hot threshold,
 * trace cap and trace-cache bytes, and the occupancy-sample interval.
 * uhm_cli run and uhm_cli sweep read them with takeSettingsFlags(),
 * uhm_serve from a request's fields (serve/proto.hh). Every machine is
 * then built from toConfig(), every sweep point included
 * (bench/bench_common.hh: sweepPoints), so a served run or sweep cannot
 * drift from a cold CLI run. Tier settings on another machine fail
 * through checkTierOnly() on every surface.
 */

#ifndef UHM_UHM_SETTINGS_HH
#define UHM_UHM_SETTINGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "uhm/machine.hh"

namespace uhm
{

/** The eight machine settings, at the defaults of MachineConfig. */
struct MachineSettings
{
    MachineKind kind = MachineKind::Dtb;
    EncodingScheme scheme = EncodingScheme::Huffman;
    uint64_t dtbBytes = 4096;
    unsigned assoc = 4;
    uint32_t tierThreshold = 8;
    size_t traceCap = 64;
    uint64_t traceBytes = 8192;
    uint64_t sampleInterval = 0;

    /** The MachineConfig these settings select. Event-tracing fields
     *  stay at their defaults; callers layer those on top. */
    MachineConfig toConfig() const;

    /**
     * Stable fingerprint of everything that affects a session's
     * compiled/warm state — the config half of a session-cache key.
     */
    std::string fingerprint() const;
};

/**
 * The tier-only rule: the three tier settings given to any machine but
 * the tiered one are an error, not a no-op, so a misspelled kind cannot
 * silently ignore them. @p given names the tier setting given, as its
 * surface spells it (flag or wire field), empty for none; FatalError
 * names it when the rule does not hold.
 */
void checkTierOnly(const MachineSettings &settings,
                   const std::string &given);

/**
 * The command-line parser of the eight settings: take every
 * `--machine=`, `--encoding=`, `--dtb-bytes=`, `--assoc=`,
 * `--tier-threshold=`, `--trace-cap=`, `--trace-bytes=` and
 * `--sample-interval=` out of @p args, leaving the rest in order, and
 * @return the settings they give once checkTierOnly() holds. A bad
 * value raises FatalError naming its flag.
 */
MachineSettings takeSettingsFlags(std::vector<std::string> &args);

} // namespace uhm

#endif // UHM_UHM_SETTINGS_HH
