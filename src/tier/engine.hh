/**
 * @file
 * The tier engine: hotness profiling, trace recording, and the tier-2
 * translator that compiles recorded traces into fused PSDER bodies.
 *
 * Pipeline (MachineKind::Tiered):
 *
 *   profile   — every backward control transfer into a resident DTB
 *               entry bumps EntryMeta::backedgeCount; crossing
 *               TierConfig::hotThreshold starts a recording at that
 *               head.
 *   record    — the machine reports each interpreted DIR address;
 *               the recording closes when control loops back to the
 *               head or the length cap is reached, and aborts on HALT
 *               or on revisiting a trace-interior address (an inner
 *               loop — tracing through it would unroll it).
 *   compile   — each recorded instruction is re-staged and lowered
 *               with the trailing INTERP elided; consecutive
 *               fall-through instructions are fused through the same
 *               pattern table raiseSemanticLevel uses
 *               (dir/fusion.hh's matchFusePattern — a trace is only
 *               entered at its head, so no interior-reference
 *               constraint applies). Run-time-computed successors
 *               become guards that side-exit on mismatch.
 *   install   — the trace goes into the trace cache and its head's DTB
 *               entry is flagged as the anchor.
 *
 * Invalidation is correct by construction: every Tiered-mode DTB
 * insert goes through installTranslation(), which invalidates any
 * trace anchored at the evicted victim; evicting a trace from the
 * trace cache clears its anchor flag; and a head whose DTB entry
 * disappeared mid-recording simply fails to install. A trace is
 * therefore executable only while its anchoring DTB entry is resident
 * and flagged.
 */

#ifndef UHM_TIER_ENGINE_HH
#define UHM_TIER_ENGINE_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/dtb.hh"
#include "dir/encoding.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "tier/trace.hh"
#include "tier/trace_cache.hh"

namespace uhm::tier
{

/** Profiler + recorder + tier-2 translator + trace cache. */
class TierEngine
{
  public:
    /**
     * @param image the encoded static representation (must outlive the
     *              engine)
     * @param dtb the machine's DTB (anchor flags live in its entries)
     */
    TierEngine(const EncodedDir &image, Dtb &dtb,
               const TierConfig &config,
               const TraceCacheConfig &cache_config);

    /** What one recordStep() call did to the recording. */
    enum class RecordStatus : uint8_t
    {
        Recording, ///< step appended; recording continues
        Closed,    ///< trace closed and compiled (see CompileResult)
        Aborted,   ///< recording abandoned (HALT / inner loop)
    };

    /** What the tier-2 translator produced from a closed recording. */
    struct CompileResult
    {
        /** The trace is resident and anchored. */
        bool installed = false;
        /** Head DIR bit address of the compiled trace. */
        uint64_t head = 0;
        /** Short instructions in the compiled body (feeds g2). */
        uint64_t compiledShorts = 0;
        /** Fusion groups formed. */
        uint64_t fusedGroups = 0;
        /** DIR instructions covered per pass. */
        uint64_t steps = 0;
        /** Installing evicted another trace. */
        bool evictedTrace = false;
        /** Head of the evicted trace (when evictedTrace). */
        uint64_t evictedHead = 0;
    };

    /** Outcome of one recordStep() call. */
    struct RecordOutcome
    {
        RecordStatus status = RecordStatus::Recording;
        /** Valid when status == Closed. */
        CompileResult compile;
    };

    /** A recording is active. */
    bool recording() const { return recording_; }

    /**
     * Should a recording start at @p head, whose resident DTB entry's
     * metadata is @p meta? True when the backedge counter is at or
     * above the threshold, no trace is anchored there yet, no other
     * recording is active, and the head is not blacklisted.
     */
    bool wantsRecording(const EntryMeta &meta, uint64_t head) const;

    /** Start recording at @p head (its execution becomes step 0). */
    void beginRecording(uint64_t head);

    /**
     * Report that the machine is about to interpret the DIR
     * instruction at @p pc while recording. Closes the trace when
     * @p pc is the head (looping) or the cap is reached (non-looping,
     * exiting to @p pc); aborts on HALT or an interior revisit.
     */
    RecordOutcome recordStep(uint64_t pc);

    /** What installTranslation did beyond the DTB insert itself. */
    struct InstallResult
    {
        Dtb::InsertOutcome dtb;
        /** The eviction invalidated the trace anchored at the victim. */
        bool invalidatedTrace = false;
    };

    /**
     * The only DTB-insert path in Tiered mode: insert @p code for
     * @p dir_addr and, when the insert evicts a trace-anchoring entry,
     * invalidate that trace — the correct-by-construction coupling of
     * the two caches. @p now (the machine's cycle count) is stamped
     * onto the new DTB entry for residency accounting; 0 when the
     * caller has no cycle source.
     */
    InstallResult installTranslation(uint64_t dir_addr,
                                     std::span<const ShortInstr> code,
                                     uint64_t now = 0);

    /**
     * Trace-cache index of the resident trace anchored at @p head, or
     * TraceCache::npos, counting a trace-cache hit or miss (one probe,
     * one commit). A miss clears the (stale) anchor flag so the head
     * falls back to ordinary execution until re-recorded.
     */
    uint32_t lookupTrace(uint64_t head);

    /**
     * Invalidate the trace anchored at @p head without touching the
     * DTB — the flush path: the anchoring DTB entry is already gone,
     * so only the orphaned trace needs destroying. @return true when a
     * trace was removed.
     */
    bool invalidateTrace(uint64_t head);

    TraceCache &cache() { return cache_; }
    const TraceCache &cache() const { return cache_; }
    const TierConfig &config() const { return config_; }

    /** Total short instructions the tier-2 translator emitted. */
    uint64_t compiledShortInstrs() const { return compiledShorts_.value(); }

    /**
     * Publish counters under "<prefix>.traces_recorded",
     * "<prefix>.traces_installed", "<prefix>.traces_aborted",
     * "<prefix>.compiled_short_instrs", "<prefix>.fused_groups" and
     * the trace cache's under "<prefix>.cache.*".
     */
    void registerCounters(obs::Registry &registry,
                          const std::string &prefix) const;

    /** Drop all traces, recording state, blacklist and counters. */
    void reset();

    /**
     * Reset the engine's and the trace cache's counters only. Resident
     * traces, the blacklist and any active recording survive — the
     * counterpart of Dtb::resetStats for a mid-run stats epoch.
     */
    void resetStats();

  private:
    RecordOutcome closeRecording(bool loops, uint64_t exit_addr);
    RecordOutcome abortRecording();
    /** Compile the recorded steps and install the trace. */
    CompileResult compileAndInstall(bool loops, uint64_t exit_addr);
    uint32_t attemptsOf(uint64_t head) const;

    const EncodedDir *image_;
    Dtb *dtb_;
    TierConfig config_;
    TraceCache cache_;

    bool recording_ = false;
    uint64_t head_ = 0;
    /** Recorded DIR bit addresses, head first. */
    std::vector<uint64_t> pcs_;
    /** Actual successor of each recorded step (filled one step late). */
    std::vector<uint64_t> succs_;
    /** Failed recording attempts per head (blacklist). */
    std::map<uint64_t, uint32_t> attempts_;

    obs::Counter recorded_;
    obs::Counter installed_;
    obs::Counter aborted_;
    obs::Counter compiledShorts_;
    obs::Counter fusedGroups_;
};

} // namespace uhm::tier

#endif // UHM_TIER_ENGINE_HH
