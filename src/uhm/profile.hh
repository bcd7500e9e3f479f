/**
 * @file
 * Bridging a RunResult into an obs::ProfileData report.
 *
 * Everything the report contains comes from the RunResult itself — the
 * cycle breakdown, the registry counter snapshot, the typed event
 * trace — so a profile can be built after the machine is gone. The
 * derived ratios reproduce the section 7 quantities: hit ratios (h_D,
 * h_c), cycles per DIR instruction (T) and translation amplification
 * (short instructions emitted per translated DIR instruction).
 *
 * The Figure 4 INTERP trace that `uhm_cli --trace` prints is rebuilt
 * from the same typed events (interpSteps), so a run records one event
 * stream whichever report is asked for.
 */

#ifndef UHM_UHM_PROFILE_HH
#define UHM_UHM_PROFILE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hh"
#include "uhm/machine.hh"

namespace uhm
{

/** Identification attached to a profile's meta line. */
struct ProfileMeta
{
    std::string program;
    std::string machine;
    std::string encoding;
    /** Encoded image size in bits (0 = unknown). */
    uint64_t imageBits = 0;
};

/** The phases of a report: each CycleBreakdown bucket, then "total". */
std::vector<std::pair<std::string, uint64_t>>
cyclePhases(const CycleBreakdown &b);

/**
 * Assemble the full report for one run. The report takes @p result's
 * snapshots and event list: pass an rvalue to move them instead of
 * copying.
 */
obs::ProfileData buildProfile(const ProfileMeta &meta, RunResult result);

/** Convenience: buildProfile + obs::toJsonl. */
std::string profileJsonl(const ProfileMeta &meta,
                         const RunResult &result);

/**
 * One INTERP lookup in the main DTB (Figure 4): a hit, or a miss that
 * trapped through DTRPOINT and translated the instruction.
 */
struct InterpStep
{
    uint64_t pc = 0;
    bool miss = false;
    /** Short instructions the miss translated the instruction into. */
    uint64_t shortInstrs = 0;
    /** The miss's translation was not retained by the DTB. */
    bool rejected = false;

    /** "interp hit dir@PC" or "interp miss dir@PC -> translate (N
     *  short instrs, stored|rejected)". */
    std::string toString() const;
};

/**
 * The INTERP lookups recorded in @p events, in order. A dtb_hit is a
 * hit; a translate is a miss, rejected when the dtb_reject that the
 * miss flow emits after it follows. First-level (Dtb2) hits and tier-2
 * trace dispatches do not look up the main DTB and do not appear.
 */
std::vector<InterpStep> interpSteps(const std::vector<obs::Event> &events);

} // namespace uhm

#endif // UHM_UHM_PROFILE_HH
