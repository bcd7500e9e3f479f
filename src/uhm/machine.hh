/**
 * @file
 * The universal host machine simulator (section 6, Figure 3).
 *
 * One Machine executes an encoded DIR program under one of three
 * organizations — the three cases of the section 7 analysis:
 *
 *  - Conventional: the IFU fetches each DIR instruction from level-2
 *    memory; IU1 decodes it and runs the semantic routines (T1).
 *  - Cached: as Conventional, but DIR fetches pass through a
 *    set-associative instruction cache over level 2 (T3).
 *  - Dtb: the INTERP instruction presents each DIR address to the DTB.
 *    On a hit, IU2 executes the resident PSDER short-format sequence,
 *    CALLing into IU1 for semantic routines. On a miss, control traps
 *    through DTRPOINT to the dynamic translator, which decodes the DIR
 *    instruction, generates the PSDER translation, stores it in the DTB
 *    and starts it (T2; the Figure 4 flow).
 *
 * Two extensions go beyond the paper's three cases: Dtb2 adds a second,
 * tau1-speed translation buffer in front of the DTB, and Tiered (T4)
 * layers the adaptive tier of src/tier/ on the Dtb organization —
 * hotness profiling, trace recording, and tier-2 re-translation of hot
 * loops into fused PSDER trace bodies held in a trace cache.
 *
 * All organizations share the memory, the operand/return stacks and the
 * semantic-routine library, so program outputs are identical across
 * organizations; only the fetch/decode/translate path — and therefore
 * the cycle count — differs.
 */

#ifndef UHM_UHM_MACHINE_HH
#define UHM_UHM_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dtb.hh"
#include "core/translator.hh"
#include "dir/encoding.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "obs/counter.hh"
#include "obs/histogram.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "psder/layout.hh"
#include "psder/routines.hh"
#include "psder/staging.hh"
#include "tier/engine.hh"
#include "uhm/costs.hh"
#include "uhm/run_image.hh"

namespace uhm
{

/** The three machine organizations of section 7. */
enum class MachineKind : uint8_t
{
    Conventional, ///< T1: plain two-level UHM
    Cached,       ///< T3: UHM + instruction cache on level 2
    Dtb,          ///< T2: UHM + dynamic translation buffer
    /**
     * Two levels of dynamic translation (section 4: "it is possible
     * that a number of levels of dynamic translation will be
     * required"): a small tau1-speed first-level buffer backed by the
     * main DTB; hot translations are promoted on reuse.
     */
    Dtb2,
    /**
     * T4: adaptive tiered translation — the Dtb organization plus a
     * hotness profiler, trace recorder, tier-2 translator and trace
     * cache (src/tier/). Hot loops are re-translated into single
     * fused PSDER bodies that pay one trace dispatch per iteration
     * instead of one DTB lookup per instruction.
     */
    Tiered,
};

/** Printable name of a machine kind. */
const char *machineKindName(MachineKind kind);

/** The kind machineKindName() names @p name; @return false if none. */
bool parseMachineKind(const std::string &name, MachineKind &out);

/** Conventional and Cached decode every executed instruction; the DTB
 *  family decodes only on a translation miss. */
inline bool
decodesEveryInstr(MachineKind kind)
{
    return kind == MachineKind::Conventional ||
           kind == MachineKind::Cached;
}

/** Full configuration of one machine instance. */
struct MachineConfig
{
    MachineKind kind = MachineKind::Dtb;
    MachineLayout layout;
    MemTiming timing;
    CostModel costs;
    /** Instruction cache (Cached only). */
    CacheConfig icache;
    /** Dynamic translation buffer (Dtb and Dtb2). */
    DtbConfig dtb;
    /** First-level translation buffer (Dtb2 only). */
    DtbConfig dtbL1{
        .capacityBytes = 512,
        .unitShortInstrs = 4,
        .assoc = 4,
        .policy = ReplPolicy::LRU,
        .allowOverflow = true,
        .overflowFraction = 0.25,
        .seed = 11,
    };
    /** Trace formation policy (Tiered only). */
    tier::TierConfig tier;
    /** Trace cache above the DTB (Tiered only). */
    tier::TraceCacheConfig traceCache;
    /** Runaway guard: abort after this many DIR instructions. */
    uint64_t maxDirInstrs = 500'000'000;
    /** Fixed trap overhead on a DTB miss (DTRPOINT branch, Figure 4). */
    uint64_t trapCycles = 2;
    /**
     * Record typed obs::Events — fetch, decode, dtb_hit, dtb_miss,
     * dtb_evict, dtb_reject, trap, translate, promote — stamped with
     * the machine's cycle counter, into a bounded ring
     * (RunResult::events). Zero-overhead when off. When on, the run
     * loops' Events instantiation runs: the same loop with each event
     * recorded where its instruction's charges put it, identical in
     * every simulated result.
     */
    bool profileEvents = false;
    /** Ring capacity (events) for the typed trace. */
    size_t profileEventCapacity = obs::Tracer::defaultCapacity;
    /**
     * Interval sampler: every this many machine cycles, snapshot the
     * DTB (and trace cache) per-set occupancy and the hit/miss deltas
     * since the previous sample into RunResult::samples. 0 (the
     * default) disables sampling; the run loop then pays exactly one
     * predictable branch per DIR instruction.
     */
    uint64_t sampleIntervalCycles = 0;
    /**
     * Record the DIR-address reference trace of the run (one entry per
     * interpreted instruction) for trace-driven DTB studies
     * (core/trace_sim.hh). Off by default: long runs produce long
     * traces.
     */
    bool captureAddressTrace = false;
};

/** Cycle buckets: where the time went. */
struct CycleBreakdown
{
    uint64_t fetch = 0;     ///< DIR instruction fetches (level 2 / cache)
    uint64_t decode = 0;    ///< DIR decode work
    uint64_t stage = 0;     ///< staging pushes / IU2 PUSH execution
    uint64_t dispatch = 0;  ///< INTERP lookups, IU2 fetches, loop overhead
    uint64_t semantic = 0;  ///< IU1 semantic-routine execution (x)
    uint64_t translate = 0; ///< PSDER generation + buffer stores (g)
    uint64_t translate2 = 0; ///< tier-2 trace compilation (g2, Tiered)

    uint64_t
    total() const
    {
        return fetch + decode + stage + dispatch + semantic + translate +
            translate2;
    }
};

/** Result of one program execution. */
struct RunResult
{
    /** Values produced by WRITE, in order. */
    std::vector<int64_t> output;
    /** Total machine cycles. */
    uint64_t cycles = 0;
    /** DIR instructions interpreted. */
    uint64_t dirInstrs = 0;
    CycleBreakdown breakdown;
    /** DTB hit ratio (Dtb/Dtb2 kinds; 1.0 otherwise). */
    double dtbHitRatio = 1.0;
    /** First-level translation-buffer hit ratio (Dtb2 only). */
    double dtbL1HitRatio = 1.0;
    /** Instruction-cache hit ratio (Cached kind; 1.0 otherwise). */
    double cacheHitRatio = 1.0;
    /**
     * Hierarchical counter snapshot from the machine's obs::Registry
     * ("dtb.hits", "icache.misses", "machine.dir_instrs", ...).
     * Always filled; read one with counter().
     */
    std::map<std::string, uint64_t> counters;
    /** Typed event trace (when MachineConfig::profileEvents). */
    std::vector<obs::Event> events;
    /** Events recorded in total, including ones the ring dropped. */
    uint64_t eventsSeen = 0;
    /** Events lost to ring overwrite. */
    uint64_t eventsDropped = 0;
    /**
     * Histogram snapshots from the machine's registry — translation
     * latency, tier-2 trace length, DTB residency lifetime, per-set
     * occupancy at eviction. Only the histograms the organization
     * actually registers appear (Conventional/Cached have none).
     */
    std::map<std::string, obs::HistogramSnapshot> histograms;
    /**
     * Interval-sampler time series (when
     * MachineConfig::sampleIntervalCycles > 0).
     */
    std::vector<obs::OccupancySample> samples;
    /** DIR-address trace (when MachineConfig::captureAddressTrace). */
    std::vector<uint64_t> addressTrace;
    /**
     * Dynamic opcode execution counts (indexed by Op). Filled by the
     * Conventional and Cached organizations, which decode every
     * executed instruction; the DTB organizations leave it empty
     * (on a hit the opcode is never re-decoded — that is the point).
     */
    std::vector<uint64_t> opcodeCounts;

    /** Average DIR instruction interpretation time (the paper's T). */
    double
    avgInterpTime() const
    {
        return dirInstrs == 0 ? 0.0 :
            static_cast<double>(cycles) / static_cast<double>(dirInstrs);
    }

    /** Counter @p name of #counters; an absent counter reads as 0. */
    uint64_t
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Measured average decode cycles per *decoded* DIR instruction. */
    double measuredD = 0.0;
    /** Measured average semantic cycles per DIR instruction (x). */
    double measuredX = 0.0;
    /** Measured average translate cycles per translated instruction. */
    double measuredG = 0.0;

    // ---- Tiered (T4) measurements; defaults are the no-tier values. ----
    /** Trace-cache hit ratio (Tiered only; 1.0 otherwise). */
    double traceHitRatio = 1.0;
    /** Fraction of DIR instructions retired inside traces (hT). */
    double traceCoverage = 0.0;
    /** Average DIR instructions per trace iteration (nT; 0 = none). */
    double traceMeanIterLen = 0.0;
    /** Measured tier-2 cycles per compiled short instruction (g2). */
    double measuredG2 = 0.0;
};

/** The universal host machine. */
class Machine
{
  public:
    /**
     * @param image the encoded static representation (must outlive the
     *              machine)
     * @param config machine organization and parameters
     * @param shared_dtb a DTB owned by someone else (the tenant
     *              scheduler) that this machine dispatches through
     *              instead of building its own. Only the Dtb and Tiered
     *              kinds accept one. The machine never invalidates or
     *              stat-resets a shared DTB (its owner controls the
     *              lifecycle) and does not publish its counters into
     *              the machine registry (they are not this machine's
     *              alone). Null = private DTB, exactly as before.
     */
    Machine(const EncodedDir &image, const MachineConfig &config,
            Dtb *shared_dtb = nullptr);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Execute the program to HALT. */
    RunResult run(const std::vector<int64_t> &input = {});

    // ---- sliced execution (the tenant scheduler's interface) -------------
    //
    // run() is exactly beginRun() + one unbounded runSlice() +
    // finishRun(); a scheduler interleaves bounded slices of several
    // machines instead.

    /** Reset machine state and load the program; no cycles execute. */
    void beginRun(std::vector<int64_t> input = {});

    /**
     * Execute until HALT or until at least @p max_cycles more cycles
     * have been consumed, whichever comes first. The bound is soft:
     * the slice ends at the first dispatch-loop boundary at or past
     * it (a trace iteration or long semantic routine may overshoot).
     * @return cycles actually consumed. 0 when already halted.
     */
    uint64_t runSlice(uint64_t max_cycles);

    /** The program has reached HALT. */
    bool finished() const { return halted_; }

    /**
     * Drain end-of-run observability (residual DTB residencies) and
     * assemble the RunResult. Call once, after finished().
     */
    RunResult finishRun();

    /**
     * Flush the DTB (and the first-level buffer, if any) through the
     * eviction path: victim residencies are recorded into the
     * residency histogram and victims that anchored a tier-2 trace
     * have that trace invalidated — the flush-on-switch path, also
     * exposed to tests. No-op for kinds without a DTB. Only victims of
     * this machine's own ASID feed the histogram and the trace
     * invalidation (a cross-tenant victim's trace lives in another
     * machine's engine).
     */
    void flushDtb();

    /**
     * Global-cycle offset for DTB residency stamps. A scheduler sets
     * it before each slice (global cycles minus this machine's own) so
     * insert/evict stamps of all tenants share one clock; standalone
     * runs leave it 0 and nothing changes.
     */
    void setCycleBase(uint64_t base) { cycleBase_ = base; }

    /** Cycles consumed so far in the current run. */
    uint64_t cyclesSoFar() const { return breakdown_.total(); }

    /** DIR instructions interpreted so far in the current run. */
    uint64_t dirInstrsSoFar() const { return dirInstrs_.value(); }

    /** The DTB (Dtb/Dtb2/Tiered kinds; null otherwise). */
    const Dtb *dtb() const { return dtb_; }

    /** The tier engine (Tiered kind only; null otherwise). */
    const tier::TierEngine *tier() const { return tier_.get(); }

    /** The first-level translation buffer (Dtb2 only). */
    const Dtb *dtbL1() const { return dtbL1_.get(); }

    /** The instruction cache (Cached kind only; null otherwise). */
    const SetAssocCache *icache() const { return icache_.get(); }

    /**
     * The machine's counter registry. Every component registered its
     * counters here at construction; reading it is a live view.
     */
    const obs::Registry &registry() const { return registry_; }

    const MachineConfig &config() const { return config_; }

    /** The semantic-routine library, shared by every machine with this
     *  layout (FlatRoutines::forLayout). */
    const FlatRoutines &routines() const { return *flat_; }

  private:
    /** The test-only stepped twin of the run loops
     *  (tests/stepped_reference.hh), which drives this machine's state. */
    friend class SteppedReference;

    /** Charge a conventional level-2 fetch of @p bits DIR bits. */
    void chargeFetchLevel2(uint64_t bits);

    /**
     * Figure 4's miss flow for pc_: trap through DTRPOINT, fetch,
     * decode, translate and insert into the main DTB (through the tier
     * engine in Tiered). Returns the translation, which the caller
     * executes whether or not the insert retained it.
     */
    std::span<const ShortInstr> missFlow();

    /**
     * Tiered's recorder hook: report pc_, the pc about to be
     * interpreted, to the active recording, and charge and trace the
     * tier-2 compilation it closes with. Cold: the DTB loop calls it at
     * its head while the recorder is active.
     */
    void recordPc();

    /** Typed events are on: runSlice picks the loops' Events
     *  instantiation. */
    bool eventsOn() const { return config_.profileEvents; }

    // ---- the run loops ----------------------------------------------------

    /** Apply a Pending's batched deltas to the real counters, the
     *  breakdown and the memory accounting, and reset it. */
    void drainPending(Pending &p);

    /**
     * The lowered FastSeq for entry @p idx (which must be valid) of
     * translation buffer @p buf, held in @p slots; relowered first, with
     * IU2 fetches charged at @p fetch_cost, if the entry's generation
     * moved on.
     */
    FastSeq *ensureSeqLowered(const Dtb &buf, FastSlots &slots,
                              uint32_t idx, uint64_t fetch_cost);

    /**
     * Promote main-DTB entry @p idx (whose lowering is @p fs) into the
     * first-level buffer under @p pc, and install the copy's lowering
     * in fastL1Slots_.
     * @return the copy's first-level entry index, or UINT32_MAX when
     *         the buffer rejected it.
     */
    uint32_t promoteFastSeq(uint64_t pc, uint32_t idx, const FastSeq &fs);

    /** Lower instruction @p res, at bit address @p pc, into @p fc: its
     *  staging at fetch cost 0, plus its fetch and decode charges. */
    void lowerConv(FastConv &fc, uint64_t pc, const DecodeResult &res);

    /**
     * The Dtb, Dtb2 or Tiered run loop. Events = true is the
     * instantiation that records every per-instruction event, stamped
     * where the instruction's charges put it.
     */
    template <MachineKind K, bool Events>
    void runDtbFast();
    /** Conventional (Cached = false) or Cached run loop; Events as for
     *  runDtbFast. */
    template <bool Cached, bool Events>
    void runConventionalFast();

    /**
     * Execute the tier-2 trace at trace-cache entry @p idx (the index
     * a lookupTrace hit committed) from its lowered image until a
     * guard side-exits or a non-looping trace runs out of steps;
     * returns the exit address. Counts every covered DIR instruction
     * exactly as tier 1 would (dirInstrs, address trace), charges tauD
     * per body short instruction and TierConfig::dispatchCycles per
     * loop-back, counts the exit, sets prevPc_ to the last DIR address
     * retired, and drains all of it before returning.
     */
    uint64_t runTrace(uint32_t idx);

    /**
     * Record a typed obs event stamped with the current cycle count.
     * The enabled check comes first so a run without a tracer sink
     * pays one predictable branch — the cycle stamp
     * (breakdown_.total(), five adds) is never computed when no one is
     * listening.
     */
    void
    emitEvent(obs::EventKind kind, uint64_t addr, uint64_t arg = 0)
    {
        if (tracer_.enabled())
            tracer_.record(kind, breakdown_.total(), addr, arg);
    }

    /** Snapshot occupancy + deltas into samples_ (sampler on only). */
    void takeSample();

    const EncodedDir *image_;
    MachineConfig config_;
    MainMemory mem_;
    /** The DTB this machine dispatches through: ownedDtb_ or a shared
     *  one injected at construction. */
    Dtb *dtb_ = nullptr;
    std::unique_ptr<Dtb> ownedDtb_;
    /** dtb_ is injected — never invalidate/reset it here. */
    bool sharedDtb_ = false;
    std::unique_ptr<Dtb> dtbL1_;
    std::unique_ptr<SetAssocCache> icache_;
    std::unique_ptr<tier::TierEngine> tier_;
    /** The DTB family's miss-path translator (memoized per pc);
     *  empty for the kinds that decode every instruction. */
    std::optional<DynamicTranslator> translator_;
    /**
     * Host-side decode memo for the conventional and cached fetch
     * paths, so allocated for those kinds only. The image is
     * immutable, so the memo never invalidates; simulated decode
     * cycles are charged from the cached DecodeCost and are identical
     * to a cold decode.
     */
    std::optional<DecodeMemo> decodeMemo_;

    // Run images (see uhm/run_image.hh and docs/INTERNALS.md
    // "Execution engine").
    /** All semantic routines flattened; immutable, shared per layout. */
    std::shared_ptr<const FlatRoutines> flat_;
    /** Lowered PSDER sequences + inline caches, by DTB entry index. */
    FastSlots fastSlots_;
    /** Lowered first-level-buffer sequences, by dtbL1 entry index
     *  (Dtb2; fetched at tau1). */
    FastSlots fastL1Slots_;
    /** Lowered trace bodies, by trace-cache entry index. */
    std::vector<FastTrace> fastTraces_;
    /** Lowered conventional-path instructions, by image index. */
    std::vector<FastConv> convFast_;

    // Machine state.
    std::array<int64_t, numMicroRegs> regs_{};
    uint64_t sp_ = 0;
    std::vector<uint64_t> ras_;
    uint64_t pc_ = 0;
    /** Previously interpreted DIR address (backedge detection). */
    uint64_t prevPc_ = 0;
    bool halted_ = false;
    /** Dispatch loops stop once breakdown_.total() reaches this. */
    uint64_t sliceLimit_ = UINT64_MAX;
    /** Global-cycle offset added to DTB residency stamps. */
    uint64_t cycleBase_ = 0;

    // I/O.
    std::vector<int64_t> inputStorage_;
    const std::vector<int64_t> *input_ = nullptr;
    size_t inputPos_ = 0;
    std::vector<int64_t> output_;

    // Accounting: counters are registered into registry_ at
    // construction (see the naming scheme in docs/INTERNALS.md).
    CycleBreakdown breakdown_;
    obs::Counter dirInstrs_;
    obs::Counter decodedInstrs_;
    obs::Counter translatedInstrs_;
    obs::Counter microOps_;
    obs::Counter shortInstrs_;
    obs::Counter dirFetchRefs_;
    obs::Counter traps_;
    /** Short instructions emitted by the dynamic translator. */
    obs::Counter translateShortEmitted_;
    // Tiered-execution counters (registered under "tier.*").
    /** DIR instructions retired inside traces. */
    obs::Counter traceDirInstrs_;
    /** Body short instructions executed inside traces. */
    obs::Counter traceShortInstrs_;
    /** Trace iterations (passes over a trace's steps) started. */
    obs::Counter traceIterations_;
    /** Trace dispatches (entries from the tier-1 loop). */
    obs::Counter traceEnters_;
    /** Trace exits (guard side-exits and non-looping run-offs). */
    obs::Counter traceExits_;
    // Histograms (registered alongside the counters; see
    // docs/INTERNALS.md "Observability"). Only slow paths record into
    // them — misses, evictions, tier-2 compilations — so the
    // hit-dominated hot path never touches one.
    /** "translate.latency_cycles": full Figure 4 miss-flow latency. */
    obs::Histogram translateLatency_;
    /** "dtb.residency_cycles": victim lifetime at eviction. */
    obs::Histogram dtbResidency_;
    /** "dtb.evict_set_occupancy": valid ways in the set at eviction. */
    obs::Histogram dtbEvictOccupancy_;
    /** "tier.trace_len_dir": DIR length of each compiled trace. */
    obs::Histogram tierTraceLen_;
    // Interval-sampler state (see MachineConfig::sampleIntervalCycles).
    uint64_t sampleEvery_ = 0;
    uint64_t nextSampleAt_ = 0;
    uint64_t lastDtbHits_ = 0;
    uint64_t lastDtbMisses_ = 0;
    uint64_t lastTraceHits_ = 0;
    uint64_t lastTraceMisses_ = 0;
    std::vector<obs::OccupancySample> samples_;
    obs::Registry registry_;
    obs::Tracer tracer_;
    std::vector<uint64_t> opcodeCounts_;
    std::vector<uint64_t> addressTrace_;
};

/** Convenience: encode @p program with @p scheme and run it. */
RunResult runProgram(const DirProgram &program, EncodingScheme scheme,
                     const MachineConfig &config,
                     const std::vector<int64_t> &input = {});

} // namespace uhm

#endif // UHM_UHM_MACHINE_HH
