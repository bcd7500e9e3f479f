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
 *  - LoweredStep: one DIR instruction's PSDER form, PUSH#* [CALL]
 *    [INTERP], lowered to its push values, its routine's flat entry
 *    point, its successor and the *statically known* cycle/counter
 *    deltas one execution of it incurs. The DTB, the conventional path
 *    and every tier-2 trace step lower through the one lowerStep, and
 *    the run loops execute every step through one executor
 *    (vm_ops.inc). Each organization's record is a LoweredStep plus
 *    only its own fields: FastSeq (a DTB unit and the inline caches of
 *    its INTERP site), FastConv (a conventionally fetched and decoded
 *    instruction) and FastTraceStep (a trace step and the DIR
 *    instructions it retires).
 *
 * Lowered images carry no simulated semantics of their own: every
 * charge they batch is the exact sum that executing the sequence one
 * short instruction at a time accumulates, and tests hold the run loops
 * byte-identical to a stepped reference (tests/stepped_reference.hh).
 * Validity is keyed on EntryMeta::gen — any insert/evict/flush of the
 * backing cache entry bumps the generation and orphans the lowered
 * image, so invalidation rides the existing replacement paths.
 */

#ifndef UHM_UHM_RUN_IMAGE_HH
#define UHM_UHM_RUN_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "psder/routines.hh"
#include "psder/short_isa.hh"
#include "psder/staging.hh"
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
 * Why a run loop left through its one fault exit (vm_ops.inc). Every
 * code but RoutineOverrun is a guest fault, raised as FatalError;
 * RoutineOverrun is a simulator bug, raised as PanicError. The operand
 * stack's overflow and underflow each have a second code for the step
 * executor's own check, so the exit knows how far the step got.
 */
enum class VmFault : uint8_t
{
    DivideByZero,       ///< "division by zero"
    ModuloByZero,       ///< "modulo by zero"
    StackOverflow,      ///< a routine's push: "operand stack overflow
                        ///< (N words)"
    StagingOverflow,    ///< a step's staging pushes: the same message
    StackUnderflow,     ///< a routine's pop: "operand stack underflow"
    SuccessorUnderflow, ///< a step's successor pop: the same message
    RasOverflow,        ///< "return-address stack overflow"
    RasUnderflow,       ///< "return-address stack underflow"
    DirBudget,          ///< "DIR instruction budget exhausted (N)"
    RoutineOverrun,     ///< "flat routine stream ran off its end"
};

/**
 * Raise @p code's error. @p stack_words and @p max_dir_instrs are the
 * limits its message names (the layout's operand-stack words, the
 * configured DIR budget).
 */
[[noreturn, gnu::cold]] void vmFault(VmFault code, uint64_t stack_words,
                                     uint64_t max_dir_instrs);

/**
 * One DIR instruction's PSDER form, PUSH#{0..4} [CALL] [INTERP],
 * lowered for the run loops' step executor. No field has a default:
 * lowerStep sets every one, so slot storage can start uninitialized.
 */
struct LoweredStep
{
    static constexpr uint32_t maxPushes = Staging::maxPushes;

    /** Immediate push values, in order: the first numPushes. */
    std::array<int64_t, maxPushes> pushes;
    /** The static successor (when !stackNext): the INTERP's operand,
     *  haltBitAddr for halt; or a guarded trace step's expected
     *  successor. */
    uint64_t nextImm;
    /** Statically known per-execution charges: the short-instruction
     *  fetches plus a popped successor's tau1; the staging pushes at
     *  tau1 each; level-1 accesses (pushes plus the pop). */
    uint64_t dispatchAdd;
    uint64_t stageAdd;
    uint32_t level1Add;
    uint32_t numPushes;
    /** Short instructions fetched (the INTERP included, if any). */
    uint32_t shortCount;
    /** Flat entry of the CALLed routine; -1 = none (or empty). */
    int32_t routineEntry;
    /** The successor is popped from the operand stack (INTERP-Stack,
     *  or a trace guard). */
    bool stackNext;

    /** Take the successor from the operand stack: one level-1 pop at
     *  @p tau1. */
    void
    popSuccessor(uint64_t tau1)
    {
        stackNext = true;
        dispatchAdd += tau1;
        ++level1Add;
    }
};

/**
 * Lower @p code, of the shape PUSH#{0..4} [CALL] [INTERP], into @p out.
 * lowerStaging emits that shape, with at most maxPushes pushes, for the
 * DTB and the conventional path; a tier-2 trace body is the same with
 * its INTERP elided, and its caller sets the successor. Each short
 * instruction is fetched at @p fetch_cost; @p tau1 is the level-1
 * access time.
 */
void lowerStep(std::span<const ShortInstr> code, const FlatRoutines &flat,
               uint64_t fetch_cost, uint64_t tau1, LoweredStep &out);

/**
 * One DTB-resident PSDER sequence lowered for the fast hit path, plus
 * the per-site inline cache for its successor's DTB entry. Trivially
 * copyable: a Dtb2 promotion copies the main entry's lowering into the
 * first-level slot.
 */
struct FastSeq : LoweredStep
{
    /** Inline cache: last successor DIR address resolved at this
     *  INTERP site, and the DTB entry index it hit. icTag ~0 never
     *  matches a pc (halt is handled before the next lookup). */
    uint64_t icTag;
    /** Second inline cache, for the main DTB behind a first-level
     *  buffer (Dtb2): where the successor sat in the main DTB the last
     *  time it missed the first level. */
    uint64_t mainIcTag;
    uint32_t icIdx;
    uint32_t mainIcIdx;
};

/**
 * The lowered sequences of one translation buffer, by entry index.
 * gen[idx] is the EntryMeta::gen of the entry seq[idx] was lowered
 * from; 0 means never lowered, and is unreachable for a resident entry
 * (insert resets at least once, and a 64-bit generation never wraps
 * back to it). Only a slot whose generation matches is read, so a run
 * touches only the slots it lowers. Sized once and never reallocated:
 * FastSeq pointers (the inline-cache sites) stay stable.
 */
struct FastSlots
{
    std::vector<uint64_t> gen;
    std::unique_ptr<FastSeq[]> seq;

    /** Hold @p n slots, all unlowered when the size changes. */
    void
    resize(size_t n)
    {
        if (gen.size() == n)
            return;
        gen.assign(n, 0);
        seq = std::make_unique_for_overwrite<FastSeq[]>(n);
    }
};

/** One lowered TraceStep: its body, at tauD per short instruction, and
 *  its guard as a popped successor whose nextImm is the expected one. */
struct FastTraceStep : LoweredStep
{
    /** The source step (dirAddrs live there; stable while gen holds). */
    const tier::TraceStep *src;
    /** Last DIR address the step retires (prevPc_ on side-exit). */
    uint64_t lastAddr;
    /** DIR instructions the step retires. */
    uint32_t nDir;
};

/** A tier-2 trace lowered for the fast path. */
struct FastTrace
{
    /** EntryMeta::gen of the trace-cache entry this lowering matches. */
    uint64_t gen = 0;
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
 * One conventional-path DIR instruction lowered for the fast loop: its
 * staging, lowered at fetch cost 0, plus static fetch/decode charges.
 * The image is immutable, so a lowered instruction never invalidates,
 * and neither does the link to its static successor's lowering.
 * Under the Cached organization the fetch charge is not static — each
 * word's icache probe decides it — so only the word range is kept,
 * plus where those words hit last time.
 */
struct FastConv : LoweredStep
{
    bool valid = false;
    /** Opcode index (opcodeCounts_ bump). */
    uint16_t opIdx = 0;
    /** References one fetch performs: level-2 references
     *  (Conventional), or 64-bit words the instruction spans, one
     *  icache probe each (Cached). */
    uint32_t fetchRefs = 0;
    /** Icache line hints (SetAssocCache::access): where the first
     *  fetch word hit last time, and where a later word did. */
    std::array<uint32_t, 2> icHint{};
    /** The lowering of the static successor, once the loop has
     *  resolved it; the loop follows it instead of looking nextImm up.
     *  Null until then, and for a stack successor. */
    FastConv *succ = nullptr;
    /** First 64-bit image word the instruction spans (Cached). */
    uint64_t fetchWord = 0;
    /** fetchRefs * tau2 (Conventional); 0 (Cached). */
    uint64_t fetchAdd = 0;
    uint64_t decodeCycles = 0;
};

/**
 * The charges a run loop batches between drains: trace boundaries,
 * slice boundaries, sampler intervals, misses and fatals. A loop bumps
 * one Pending whose address never escapes, so its fields stay in
 * registers, and moves it into a second one at a drain;
 * Machine::drainPending applies that one to the real counters. Between
 * drains, breakdown_.total() is understated by cycles().
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
