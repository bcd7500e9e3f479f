/**
 * @file
 * Flattened run images for the execution engine in uhm/machine.cc.
 *
 * The decoded structures are pointer-rich: vectors of MicroOp per
 * routine, vectors of ShortInstr per DTB entry, vectors of TraceStep
 * per trace. The engine lowers each of them once into arena-style,
 * struct-of-arrays images so the inner loop is pointer-chase-free:
 *
 *  - FlatRoutines: every semantic routine's micro-ops concatenated into
 *    two parallel streams (a packed op/register word and an immediate),
 *    with relative branch distances pre-resolved to absolute stream
 *    indices and a sentinel op terminating each routine.
 *  - FastSeq: one DTB-resident PSDER sequence (PUSH#* [CALL] INTERP)
 *    lowered to its push values, its routine's flat entry point, its
 *    successor, and the *statically known* cycle/counter deltas one
 *    execution of it incurs on the hit path. It doubles as the home of
 *    the per-INTERP-site inline cache for the successor's DTB entry.
 *  - FastTrace: a tier-2 trace body lowered the same way, one step per
 *    TraceStep with per-step static charges.
 *
 * Lowered images carry no simulated semantics of their own: every
 * charge they batch is the exact sum the per-instruction step functions
 * would have accumulated, and tests assert byte-identical counters.
 * Validity is keyed on EntryMeta::gen — any insert/evict/flush of the
 * backing cache entry bumps the generation and orphans the lowered
 * image, so invalidation rides the existing replacement paths.
 */

#ifndef UHM_UHM_RUN_IMAGE_HH
#define UHM_UHM_RUN_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "psder/routines.hh"
#include "psder/short_isa.hh"
#include "tier/trace.hh"

namespace uhm
{

/**
 * All semantic routines flattened into contiguous opcode/operand
 * streams with absolute branch targets.
 */
struct FlatRoutines
{
    /** Packed micro-op: op | dst<<8 | srcA<<16 | srcB<<24. */
    std::vector<uint32_t> code;
    /** Immediate stream, parallel to #code. Branch immediates are
     *  pre-resolved to absolute indices into the streams. */
    std::vector<int64_t> imm;
    /** Flat entry index per routine id; -1 = empty routine. */
    std::vector<int32_t> entry;

    /** Op byte terminating each routine's stream ("fell off" guard).
     *  One past MOp::DONE, so the dispatch table stays dense. */
    static constexpr uint32_t sentinelOp =
        static_cast<uint32_t>(MOp::DONE) + 1;

    /**
     * Fused superops installed by the build() peephole. They exist only
     * in the flat streams, not in the RoutineLibrary. Each is
     * the textual concatenation of its constituents' bodies with
     * identical per-constituent accounting (micro-op counts, charges
     * and fatal-check order), minus the inter-op dispatches. Only the
     * FIRST constituent word's op byte is rewritten; stream positions
     * (and thus pre-resolved branch targets) are unchanged, and later
     * constituent words keep their original op bytes, so a branch into
     * the middle of a fused region executes the original singletons.
     */
    enum FusedOp : uint32_t
    {
        // SPOP a; SPOP b; <alu> d,a,b; SPUSH d; DONE — one per ALU op.
        F_BIN_ADD = sentinelOp + 1,
        F_BIN_SUB, F_BIN_MUL, F_BIN_DIV, F_BIN_MOD, F_BIN_AND,
        F_BIN_OR, F_BIN_XOR, F_BIN_SHL, F_BIN_SHR, F_BIN_CMPEQ,
        F_BIN_CMPNE, F_BIN_CMPLT, F_BIN_CMPLE, F_BIN_CMPGT,
        F_BIN_CMPGE,
        F_PUSHL,    ///< SPOP SPOP LOAD ADD LOAD SPUSH DONE
        F_STORE3,   ///< SPOP SPOP SPOP LOAD ADD STORE DONE
        F_ADDR,     ///< SPOP SPOP LOAD ADD SPUSH DONE
        F_LOADI,    ///< SPOP LOAD SPUSH DONE
        F_STOREI,   ///< SPOP SPOP STORE DONE
        F_DUP,      ///< SPOP SPUSH SPUSH DONE
        F_POP_DONE, ///< SPOP DONE
        F_SWAP,     ///< SPOP SPOP SPUSH SPUSH DONE
        F_NEG1,     ///< SPOP NEG SPUSH DONE
        F_NOT1,     ///< SPOP NOT SPUSH DONE
        F_CALLP,    ///< SPOP RASPUSH DONE
        F_RET,      ///< SPOP SPOP SUB ADDI LOAD STORE RASPOP SPUSH DONE
        F_READ,     ///< INP SPUSH DONE
        F_WRITE,    ///< SPOP OUTP DONE
        F_INCL,     ///< SPOP SPOP SPOP LOAD ADD LOAD ADD STORE DONE
        F_WRITEL,   ///< SPOP SPOP LOAD ADD LOAD OUTP DONE
        F_PUSHL2,   ///< SPOP x4 LOAD ADD LOAD LOAD ADD LOAD SPUSH x2 DONE
        F_LEA4,     ///< SPOP x4 LOAD ADD LOAD (brzl/brnzl prefix)
        F_SPOP3,    ///< SPOP SPOP SPOP
        F_SPOP2,    ///< SPOP SPOP
        F_PUSH_BR,  ///< SPUSH BR
        F_PUSH_DONE,///< SPUSH DONE
        F_ENTER_PRE,  ///< SPOP x3 LOAD STORE ADDI STORE ADD ADDI
        F_ENTER_LOOP, ///< BRZ ADDI SPOP ADD STORE BR (per-iteration)
        /** BRZ r; BRNEG r; ADDI r,r,-1; BR <self>: a counted spin run
         *  to completion in closed form (identical retire counts). */
        F_SEMWORK_LOOP,
        fusedEnd,
    };

    /** Flatten @p count routines of @p lib (ids 0..count-1). */
    static FlatRoutines build(const RoutineLibrary &lib, size_t count);

    /**
     * The flattened library of every DIR opcode's routine for
     * @p layout. The routines are fixed firmware that depends only on
     * the layout, so each distinct layout is built once per process and
     * every machine with that layout shares the one immutable copy.
     * Thread-safe.
     */
    static std::shared_ptr<const FlatRoutines>
    forLayout(const MachineLayout &layout);
};

/**
 * One DTB-resident PSDER sequence lowered for the fast hit path, plus
 * the per-site inline cache for its successor's DTB entry. Trivially
 * copyable: a Dtb2 promotion copies the main entry's lowering into the
 * first-level slot.
 */
struct FastSeq
{
    /** Most staging pushes any DIR instruction makes (BRZL/BRNZL); a
     *  sequence with more leading immediates is left unfastable. */
    static constexpr uint32_t maxPushes = 4;

    /** EntryMeta::gen of the DTB entry this lowering matches. gen 0 is
     *  unreachable for a resident entry (insert resets at least once),
     *  so a default-constructed FastSeq never validates. */
    uint32_t gen = 0;
    /** The sequence has the canonical PUSH#* [CALL] INTERP shape and
     *  may run on the fast path. */
    bool fastable = false;
    /** The successor is popped from the operand stack (INTERP-Stack). */
    bool stackNext = false;
    /** Short instructions executed (up to and including the INTERP). */
    uint32_t shortCount = 0;
    /** Flat entry of the CALLed routine; -1 = none (or empty). */
    int32_t routineEntry = -1;
    /** Static successor DIR bit address (when !stackNext); may be
     *  haltBitAddr. */
    uint64_t nextImm = 0;
    /** Statically known per-execution charge deltas on the hit path
     *  (IU2 fetches at tauD + the INTERP-Stack pop), excluding the
     *  initial DTB lookup itself. */
    uint64_t dispatchAdd = 0;
    /** Staging pushes: one level-1 store each. */
    uint64_t stageAdd = 0;
    /** Level-1 memory accesses (pushes + successor pop). */
    uint32_t level1Add = 0;
    /** Inline cache: last successor DIR address resolved at this
     *  INTERP site, and the DTB entry index it hit. icTag ~0 never
     *  matches a pc (halt is handled before the next lookup). */
    uint64_t icTag = ~0ull;
    uint32_t icIdx = 0;
    /** Second inline cache, for the main DTB behind a first-level
     *  buffer (Dtb2): where the successor sat in the main DTB the last
     *  time it missed the first level. */
    uint64_t mainIcTag = ~0ull;
    uint32_t mainIcIdx = 0;
    /** Immediate push values, in order: the first numPushes. */
    uint32_t numPushes = 0;
    std::array<int64_t, maxPushes> pushes{};
};

/**
 * Lower @p code into @p out. @return out.fastable: false when the
 * sequence is not of the canonical shape (the caller then takes its
 * step for it — accounting stays identical either way).
 * @p tau_d / @p tau1 are the IU2 fetch and level-1 access times the
 * static charges are computed with.
 */
bool lowerFastSeq(const std::vector<ShortInstr> &code,
                  const FlatRoutines &flat, uint64_t tau_d,
                  uint64_t tau1, FastSeq &out);

/** One lowered trace-body element: a push or a routine call. */
struct FastTraceItem
{
    /** Flat routine entry; < 0 = this item is a push of #pushValue. */
    int32_t routineEntry = -1;
    int64_t pushValue = 0;
};

/** One lowered TraceStep with its static per-execution charges. */
struct FastTraceStep
{
    /** The source step (dirAddrs live there; stable while gen holds). */
    const tier::TraceStep *src = nullptr;
    uint32_t nDir = 0;
    uint32_t nBody = 0;
    uint32_t nPushes = 0;
    /** tauD per body instruction + the guard pop, when guarded. */
    uint64_t dispatchAdd = 0;
    uint64_t stageAdd = 0;
    uint32_t level1Add = 0;
    bool guarded = false;
    uint64_t expect = 0;
    /** Last DIR address the step retires (prevPc_ on side-exit). */
    uint64_t lastAddr = 0;
    std::vector<FastTraceItem> items;
};

/** A tier-2 trace lowered for the fast path. */
struct FastTrace
{
    /** EntryMeta::gen of the trace-cache entry this lowering matches. */
    uint32_t gen = 0;
    bool loops = false;
    uint64_t exitAddr = 0;
    /** prevPc_ when a non-looping trace runs off its last step. */
    uint64_t lastAddr = 0;
    std::vector<FastTraceStep> steps;
};

/**
 * Lower @p trace into @p out. Every trace lowers: bodies are PUSH#/CALL
 * only by construction. The lowered image holds pointers into @p trace
 * and is valid exactly as long as the trace-cache entry's generation is
 * unchanged.
 */
void lowerFastTrace(const tier::Trace &trace, const FlatRoutines &flat,
                    uint64_t tau_d, uint64_t tau1, FastTrace &out);

/**
 * One conventional-path DIR instruction lowered for the fast loop:
 * static fetch/decode charges plus the staged pushes and successor.
 * The image is immutable, so a lowered instruction never invalidates.
 * Under the Cached organization the fetch charge is not static — each
 * word's icache probe decides it — so only the word range is kept.
 */
struct FastConv
{
    bool valid = false;
    /** Opcode index (opcodeCounts_ bump). */
    uint16_t opIdx = 0;
    /** References one fetch performs: level-2 references
     *  (Conventional), or 64-bit words the instruction spans, one
     *  icache probe each (Cached). */
    uint32_t fetchRefs = 0;
    /** First 64-bit image word the instruction spans (Cached). */
    uint64_t fetchWord = 0;
    /** fetchRefs * tau2 (Conventional); 0 (Cached). */
    uint64_t fetchAdd = 0;
    uint64_t decodeCycles = 0;
    /** NextKind, widened. */
    uint8_t next = 0;
    uint64_t nextImm = 0;
    int32_t routineEntry = -1;
    uint64_t stageAdd = 0;
    /** Stack-successor pop charge (tau1 when next == Stack). */
    uint64_t dispatchAdd = 0;
    uint32_t level1Add = 0;
    std::vector<int64_t> pushes;
};

/**
 * Per-bucket deltas the fast dispatch loops accumulate in locals and
 * drain at trace boundaries, slice boundaries and sampler intervals.
 * Machine::drainPending applies a Pending to the real counters;
 * between drains, breakdown_.total() is understated by cycles().
 */
struct Pending
{
    uint64_t fetch = 0;
    uint64_t decode = 0;
    uint64_t stage = 0;
    uint64_t dispatch = 0;
    uint64_t semantic = 0;
    uint64_t dirInstrs = 0;
    uint64_t decodedInstrs = 0;
    uint64_t shortInstrs = 0;
    uint64_t microOps = 0;
    uint64_t dirFetchRefs = 0;
    /** Memory accesses by level (MainMemory::chargeBatch at drain). */
    uint64_t level1 = 0;
    uint64_t level2 = 0;
    // Tiered-execution counters.
    uint64_t traceDirInstrs = 0;
    uint64_t traceShortInstrs = 0;
    uint64_t traceIterations = 0;
    uint64_t traceExits = 0;

    /** Cycle delta not yet in breakdown_ (memory charges included in
     *  the bucket fields already). */
    uint64_t
    cycles() const
    {
        return fetch + decode + stage + dispatch + semantic;
    }
};

} // namespace uhm

#endif // UHM_UHM_RUN_IMAGE_HH
