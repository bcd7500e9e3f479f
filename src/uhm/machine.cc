#include "uhm/machine.hh"

#include <cstdlib>
#include <sstream>

#include "support/logging.hh"
#include "support/wrap.hh"

namespace uhm
{

const char *
machineKindName(MachineKind kind)
{
    switch (kind) {
      case MachineKind::Conventional: return "conventional";
      case MachineKind::Cached:       return "cached";
      case MachineKind::Dtb:          return "dtb";
      case MachineKind::Dtb2:         return "dtb2";
      case MachineKind::Tiered:       return "tiered";
    }
    return "?";
}

Machine::Machine(const EncodedDir &image, const MachineConfig &config,
                 Dtb *shared_dtb)
    : image_(&image), config_(config),
      mem_(config.layout.level1Words, config.timing)
{
    if (shared_dtb && config_.kind != MachineKind::Dtb &&
        config_.kind != MachineKind::Tiered) {
        fatal("machine kind '%s' cannot dispatch through a shared DTB",
              machineKindName(config_.kind));
    }
    // The operand stack lives wholly in level-1 memory: every push and
    // pop charges a static tau1, and the run loops address the stack
    // through a raw pointer into the level-1 backing store.
    const MachineLayout &layout = config_.layout;
    if (layout.stackBase + layout.stackWords > layout.level1Words) {
        fatal("operand stack [%llu, %llu) does not fit in level-1 "
              "memory (%llu words)",
              static_cast<unsigned long long>(layout.stackBase),
              static_cast<unsigned long long>(layout.stackBase +
                                              layout.stackWords),
              static_cast<unsigned long long>(layout.level1Words));
    }
    switch (config_.kind) {
      case MachineKind::Dtb2:
        dtbL1_ = std::make_unique<Dtb>(config_.dtbL1);
        [[fallthrough]];
      case MachineKind::Dtb:
        if (shared_dtb) {
            dtb_ = shared_dtb;
            sharedDtb_ = true;
        } else {
            ownedDtb_ = std::make_unique<Dtb>(config_.dtb);
            dtb_ = ownedDtb_.get();
        }
        break;
      case MachineKind::Tiered:
        if (shared_dtb) {
            dtb_ = shared_dtb;
            sharedDtb_ = true;
        } else {
            ownedDtb_ = std::make_unique<Dtb>(config_.dtb);
            dtb_ = ownedDtb_.get();
        }
        tier_ = std::make_unique<tier::TierEngine>(
            image, *dtb_, config_.tier, config_.traceCache);
        break;
      case MachineKind::Cached:
        icache_ = std::make_unique<SetAssocCache>(config_.icache);
        break;
      case MachineKind::Conventional:
        break;
    }
    flat_ = FlatRoutines::forLayout(layout);
    if (decodesEveryInstr(config_.kind)) {
        decodeMemo_.emplace(image);
        stagingValid_.assign(image.numInstrs(), 0);
        stagingMemo_.resize(image.numInstrs());
    } else {
        translator_.emplace(image);
    }

    const DirProgram &prog = image.program();
    if (prog.maxDepth() > layout.maxDepth) {
        fatal("program nests %u contours deep; layout supports %llu",
              prog.maxDepth(),
              static_cast<unsigned long long>(layout.maxDepth));
    }

    // Publish every component's counters under one hierarchical
    // namespace (naming scheme: docs/INTERNALS.md "Observability").
    registry_.add("machine.dir_instrs", dirInstrs_);
    registry_.add("machine.decoded_instrs", decodedInstrs_);
    registry_.add("machine.translated_instrs", translatedInstrs_);
    registry_.add("machine.micro_ops", microOps_);
    registry_.add("machine.short_instrs", shortInstrs_);
    registry_.add("machine.dir_fetch_refs", dirFetchRefs_);
    registry_.add("machine.traps", traps_);
    registry_.add("translate.short_emitted", translateShortEmitted_);
    mem_.registerCounters(registry_, "mem");
    if (dtb_) {
        // A shared DTB's counters are pooled across tenants — they are
        // not this machine's to publish. The histograms below are
        // per-machine members and always register.
        if (!sharedDtb_)
            dtb_->registerCounters(registry_, "dtb");
        registry_.addHistogram("translate.latency_cycles",
                               translateLatency_);
        registry_.addHistogram("dtb.residency_cycles", dtbResidency_);
        registry_.addHistogram("dtb.evict_set_occupancy",
                               dtbEvictOccupancy_);
    }
    if (dtbL1_)
        dtbL1_->registerCounters(registry_, "dtbl1");
    if (icache_)
        icache_->registerCounters(registry_, "icache");
    if (tier_) {
        tier_->registerCounters(registry_, "tier");
        registry_.addHistogram("tier.trace_len_dir", tierTraceLen_);
        registry_.add("tier.trace_dir_instrs", traceDirInstrs_);
        registry_.add("tier.trace_short_instrs", traceShortInstrs_);
        registry_.add("tier.trace_iterations", traceIterations_);
        registry_.add("tier.trace_enters", traceEnters_);
        registry_.add("tier.trace_exits", traceExits_);
    }
}

Machine::~Machine() = default;

// ---- operand stack --------------------------------------------------------

void
Machine::pushStack(int64_t value, uint64_t &bucket)
{
    if (sp_ >= config_.layout.stackWords)
        fatal("operand stack overflow (%llu words)",
              static_cast<unsigned long long>(config_.layout.stackWords));
    uint64_t before = mem_.cycles();
    mem_.write(config_.layout.stackBase + sp_, value);
    ++sp_;
    bucket += mem_.cycles() - before;
}

int64_t
Machine::popStack(uint64_t &bucket)
{
    if (sp_ == 0)
        fatal("operand stack underflow");
    --sp_;
    uint64_t before = mem_.cycles();
    int64_t v = mem_.read(config_.layout.stackBase + sp_);
    bucket += mem_.cycles() - before;
    return v;
}

// ---- IU1: semantic-routine execution --------------------------------------
//
// The out-of-line instance of the micro-op core, which the step
// functions reach through executeStaged and executeShort. The fast
// loops include vm_ops.inc themselves and batch its charges; this
// instance applies them when the routine retires, so a step leaves the
// counters, the breakdown and the memory accounting current for the
// events and samples that follow it.

void
Machine::callRoutine(size_t entry)
{
    const uint32_t *vm_code = flat_->code.data();
    const int64_t *vm_imm = flat_->imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    auto &r = regs_;

    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    uint64_t sp = sp_;
    int64_t *stk = mem_.raw() + stack_base;
    size_t vm_i = entry, vm_ii = 0;
    uint32_t vm_w = 0;

#define VM_BAIL()                                                      \
    do {                                                               \
        microOps_ += n;                                                \
        breakdown_.semantic += n * tau1 + sem_mem;                     \
        mem_.chargeBatch(l1, l2);                                      \
        sp_ = sp;                                                      \
    } while (0)

    goto vm_enter;
routine_done:
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto routine_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
}

// ---- fetch paths ----------------------------------------------------------

void
Machine::chargeFetchLevel2(uint64_t bits)
{
    uint64_t refs = std::max<uint64_t>(1, (bits + 63) / 64);
    breakdown_.fetch += refs * config_.timing.tau2;
    dirFetchRefs_ += refs;
    emitEvent(obs::EventKind::Fetch, pc_, refs);
}

void
Machine::chargeFetchCached(uint64_t bit_addr, uint64_t bits)
{
    uint64_t first = bit_addr / 64;
    uint64_t last = bits == 0 ? first : (bit_addr + bits - 1) / 64;
    for (uint64_t word = first; word <= last; ++word) {
        bool hit = icache_->access(word * 8);
        breakdown_.fetch += hit ? config_.timing.tauD :
            config_.timing.tau2;
        ++dirFetchRefs_;
    }
    emitEvent(obs::EventKind::Fetch, bit_addr, last - first + 1);
}

// ---- execution ------------------------------------------------------------

void
Machine::traceEvent(const std::string &event)
{
    if (config_.traceEvents)
        trace_.push_back(event);
}

void
Machine::executeStaged(const Staging &staging)
{
    for (int64_t v : staging.pushes)
        pushStack(v, breakdown_.stage);
    if (staging.routine >= 0) {
        int32_t entry = flat_->entry[static_cast<size_t>(staging.routine)];
        if (entry >= 0)
            callRoutine(static_cast<size_t>(entry));
    }
    switch (staging.next) {
      case NextKind::Imm:
        pc_ = staging.nextImm;
        break;
      case NextKind::Stack:
        pc_ = static_cast<uint64_t>(popStack(breakdown_.dispatch));
        break;
      case NextKind::Halt:
        halted_ = true;
        break;
    }
}

void
Machine::convStep()
{
    maybeSample();
    if (dirInstrs_ >= config_.maxDirInstrs)
        fatal("DIR instruction budget exhausted (%llu)",
              static_cast<unsigned long long>(config_.maxDirInstrs));
    ++dirInstrs_;
    ++decodedInstrs_;
    if (config_.captureAddressTrace)
        addressTrace_.push_back(pc_);

    // The simulated machine decodes every executed instruction (and is
    // charged for it below); the host replays the memoized result after
    // the first visit to a pc.
    const DecodeResult &res = decodeMemo_->decodeAt(pc_);
    ++opcodeCounts_[static_cast<size_t>(res.instr.op)];
    uint64_t bits = res.nextBitAddr - pc_;
    if (config_.kind == MachineKind::Cached)
        chargeFetchCached(pc_, bits);
    else
        chargeFetchLevel2(bits);
    uint64_t decode_cycles = config_.costs.decodeCycles(res.cost);
    breakdown_.decode += decode_cycles;
    emitEvent(obs::EventKind::Decode, pc_, decode_cycles);
    executeStaged(stagingAt(res));
}

const Staging &
Machine::stagingAt(const DecodeResult &res)
{
    if (!stagingValid_[res.index]) {
        stagingMemo_[res.index] =
            stageInstruction(res.instr, *image_, res.index);
        stagingValid_[res.index] = 1;
    }
    return stagingMemo_[res.index];
}

void
Machine::executeShort(const ShortInstr &si)
{
    switch (si.op) {
      case SOp::PUSH: {
        int64_t value = si.operand;
        if (si.mode == SMode::Direct || si.mode == SMode::Indirect) {
            uint64_t before = mem_.cycles();
            value = mem_.read(static_cast<uint64_t>(si.operand));
            if (si.mode == SMode::Indirect)
                value = mem_.read(static_cast<uint64_t>(value));
            breakdown_.stage += mem_.cycles() - before;
        }
        pushStack(value, breakdown_.stage);
        break;
      }
      case SOp::POP: {
        int64_t value = popStack(breakdown_.stage);
        uint64_t before = mem_.cycles();
        uint64_t addr = static_cast<uint64_t>(si.operand);
        if (si.mode == SMode::Indirect)
            addr = static_cast<uint64_t>(mem_.read(addr));
        mem_.write(addr, value);
        breakdown_.stage += mem_.cycles() - before;
        break;
      }
      case SOp::CALL: {
        uhm_assert(si.operand >= 0 &&
                   static_cast<size_t>(si.operand) < flat_->entry.size(),
                   "CALL to unknown routine id");
        int32_t entry = flat_->entry[static_cast<size_t>(si.operand)];
        if (entry >= 0)
            callRoutine(static_cast<size_t>(entry));
        break;
      }
      case SOp::INTERP:
        panic("INTERP outside the dispatch loop");
    }
}

uint64_t
Machine::executeShortSequence(const std::vector<ShortInstr> &code,
                              uint64_t fetch_cost)
{
    for (const ShortInstr &si : code) {
        // IU2 fetches each short instruction from the buffer array.
        breakdown_.dispatch += fetch_cost;
        ++shortInstrs_;
        if (si.op == SOp::INTERP) {
            if (si.mode == SMode::Stack)
                return static_cast<uint64_t>(
                    popStack(breakdown_.dispatch));
            return static_cast<uint64_t>(si.operand);
        }
        executeShort(si);
    }
    panic("PSDER sequence did not end with INTERP");
}

const std::vector<ShortInstr> &
Machine::missFlow()
{
    // Figure 4: trap through DTRPOINT to the dynamic translator.
    emitEvent(obs::EventKind::DtbMiss, pc_);
    uint64_t miss_start = breakdown_.total();
    breakdown_.dispatch += config_.trapCycles;
    ++traps_;
    emitEvent(obs::EventKind::Trap, pc_, config_.trapCycles);
    ++decodedInstrs_;
    ++translatedInstrs_;

    // Memoized: a repeat miss on this pc replays the cached translation;
    // the charged costs are identical either way.
    const Translation &tr = translator_->translate(pc_);
    chargeFetchLevel2(tr.bits);
    uint64_t decode_cycles = config_.costs.decodeCycles(tr.decodeCost);
    breakdown_.decode += decode_cycles;
    emitEvent(obs::EventKind::Decode, pc_, decode_cycles);
    // Generation: one cycle to construct each short instruction plus one
    // buffer-array store each.
    breakdown_.translate += tr.genSteps * (1 + config_.timing.tauD);
    translateShortEmitted_ += tr.code.size();
    emitEvent(obs::EventKind::Translate, pc_, tr.code.size());

    // Tiered inserts through its tier engine, so an eviction also
    // invalidates any trace the victim anchored.
    uint64_t now = cycleBase_ + breakdown_.total();
    tier::TierEngine::InstallResult ins;
    if (tier_)
        ins = tier_->installTranslation(pc_, tr.code, now);
    else
        ins.dtb = dtb_->insert(pc_, tr.code, now);
    translateLatency_.record(breakdown_.total() - miss_start);
    if (ins.dtb.evicted) {
        dtbResidency_.record(ins.dtb.victimResidency);
        dtbEvictOccupancy_.record(ins.dtb.setOccupancy);
        emitEvent(obs::EventKind::DtbEvict, ins.dtb.victimTag,
                  ins.dtb.unitsNeeded);
    }
    if (ins.invalidatedTrace)
        emitEvent(obs::EventKind::TraceInvalidate, ins.dtb.victimTag);
    if (!ins.dtb.retained)
        emitEvent(obs::EventKind::DtbReject, pc_, ins.dtb.unitsNeeded);
    if (config_.traceEvents) {
        std::ostringstream os;
        os << "interp miss dir@" << pc_ << " -> translate ("
           << tr.code.size() << " short instrs, "
           << (ins.dtb.retained ? "stored" : "rejected") << ")";
        traceEvent(os.str());
    }
    return tr.code;
}

uint32_t
Machine::dtbStep()
{
    uint32_t hit_idx = UINT32_MAX;
    maybeSample();
    if (dirInstrs_ >= config_.maxDirInstrs)
        fatal("DIR instruction budget exhausted (%llu)",
              static_cast<unsigned long long>(config_.maxDirInstrs));

    // Recorder hook (Tiered): report the pc about to be interpreted.
    if (tier_ && tier_->recording()) {
        tier::TierEngine::RecordOutcome ro = tier_->recordStep(pc_);
        if (ro.status == tier::TierEngine::RecordStatus::Closed) {
            // Tier-2 translation charge: construct each short
            // instruction of the fused body and store it into the trace
            // cache's buffer array.
            breakdown_.translate2 += ro.compile.compiledShorts *
                (config_.tier.gen2CyclesPerInstr + config_.timing.tauD);
            tierTraceLen_.record(ro.compile.steps);
            emitEvent(obs::EventKind::Translate2, ro.compile.head,
                      ro.compile.compiledShorts);
            if (ro.compile.evictedTrace)
                emitEvent(obs::EventKind::TraceEvict,
                          ro.compile.evictedHead);
        } else if (ro.status == tier::TierEngine::RecordStatus::Aborted) {
            emitEvent(obs::EventKind::TraceAbort, pc_);
        }
    }

    std::vector<ShortInstr> local;
    const std::vector<ShortInstr> *code = nullptr;
    uint64_t fetch_cost = config_.timing.tauD;

    // First-level translation buffer (Dtb2): a tau1-speed lookup.
    if (dtbL1_) {
        breakdown_.dispatch += config_.timing.tau1;
        Dtb::LookupResult l1 = dtbL1_->lookup(pc_);
        if (l1.hit) {
            code = l1.code;
            fetch_cost = config_.timing.tau1;
        }
    }

    if (!code) {
        // INTERP presents the DIR address to the associative address
        // array (one DTB-array access).
        breakdown_.dispatch += config_.timing.tauD;
        Dtb::LookupResult lr = dtb_->lookup(pc_);
        if (!lr.hit) {
            code = &missFlow();
            if (dtbL1_)
                dtbL1_->insert(pc_, *code);
        } else {
            hit_idx = lr.entryIdx;
            code = lr.code;
            emitEvent(obs::EventKind::DtbHit, pc_);
            if (config_.traceEvents) {
                std::ostringstream os;
                os << "interp hit dir@" << pc_;
                traceEvent(os.str());
            }
            if (dtbL1_) {
                // Promote into the first-level buffer: one tau1 store
                // per short instruction copied.
                breakdown_.dispatch += code->size() * config_.timing.tau1;
                local = *code;
                dtbL1_->insert(pc_, local);
                emitEvent(obs::EventKind::Promote, pc_, local.size());
                code = &local;
            }
            if (tier_) {
                // Hotness profile: a backward transfer into a resident
                // entry is a backedge (loops close with one).
                bool backedge = pc_ <= prevPc_;
                if (backedge)
                    ++lr.meta->backedgeCount;
                if (lr.meta->anchorsTrace && !tier_->recording()) {
                    // Trace dispatch: one trace-cache access plus the
                    // dispatch overhead, paid once per entry rather
                    // than once per instruction. runTrace counts the
                    // head itself.
                    breakdown_.dispatch += config_.timing.tauD +
                        config_.tier.dispatchCycles;
                    if (const tier::Trace *trace =
                            tier_->lookupTrace(pc_)) {
                        ++traceEnters_;
                        emitEvent(obs::EventKind::TraceEnter, pc_,
                                  trace->dirCount);
                        uint64_t iters_before = traceIterations_.value();
                        uint64_t next = runTrace(pc_, *trace);
                        emitEvent(obs::EventKind::TraceExit, next,
                                  traceIterations_.value() -
                                      iters_before);
                        if (next == haltBitAddr)
                            halted_ = true;
                        else
                            pc_ = next;
                        return hit_idx;
                    }
                    // Stale anchor (cleared by lookupTrace): fall back
                    // to the ordinary tier-1 path.
                }
                if (backedge && tier_->wantsRecording(*lr.meta, pc_)) {
                    tier_->beginRecording(pc_);
                    emitEvent(obs::EventKind::TraceRecord, pc_);
                }
            }
        }
    }

    ++dirInstrs_;
    if (config_.captureAddressTrace)
        addressTrace_.push_back(pc_);
    prevPc_ = pc_;
    uint64_t next = executeShortSequence(*code, fetch_cost);
    if (next == haltBitAddr)
        halted_ = true;
    else
        pc_ = next;
    return hit_idx;
}

// ---- the run loops --------------------------------------------------------
//
// One fast loop per organization family. Every charge a loop batches
// into a Pending is the exact sum its step function would have applied
// instruction by instruction, and anything it cannot run from a lowered
// image — misses, cold sites, active trace recording, unfastable
// shapes — falls back to exactly one step (convStep or dtbStep), so
// cold-path accounting has a single implementation.
// Runs with events on step every instruction: events are stamped
// mid-instruction, which batched attribution does not reproduce.
// tests/dispatch_test.cc holds stepped and fast runs byte-identical.

void
Machine::drainPending(Pending &p)
{
    breakdown_.fetch += p.fetch;
    breakdown_.decode += p.decode;
    breakdown_.stage += p.stage;
    breakdown_.dispatch += p.dispatch;
    breakdown_.semantic += p.semantic;
    dirInstrs_ += p.dirInstrs;
    decodedInstrs_ += p.decodedInstrs;
    shortInstrs_ += p.shortInstrs;
    microOps_ += p.microOps;
    dirFetchRefs_ += p.dirFetchRefs;
    traceDirInstrs_ += p.traceDirInstrs;
    traceShortInstrs_ += p.traceShortInstrs;
    traceIterations_ += p.traceIterations;
    traceExits_ += p.traceExits;
    mem_.chargeBatch(p.level1, p.level2);
    p = Pending{};
}

FastSeq *
Machine::ensureSeqLowered(const Dtb &buf, std::vector<FastSeq> &slots,
                          uint32_t idx, uint64_t fetch_cost)
{
    FastSeq &fs = slots[idx];
    uint32_t gen = buf.metaAt(idx).gen;
    if (fs.gen != gen) {
        // The entry's contents changed since this slot was lowered
        // (insert, evict or flush all bump the generation): relower,
        // which also clears the slot's inline cache.
        lowerFastSeq(buf.codeAt(idx), *flat_, fetch_cost,
                     config_.timing.tau1, fs);
        fs.gen = gen;
    }
    return &fs;
}

uint32_t
Machine::promoteFastSeq(uint64_t pc, uint32_t idx, const FastSeq &fs)
{
    Dtb::InsertOutcome ins = dtbL1_->insert(pc, dtb_->codeAt(idx));
    if (!ins.retained)
        return UINT32_MAX;
    // The copy's lowering is the main entry's, fetched at tau1 instead
    // of tauD (unsigned arithmetic wraps, so the adjustment is exact
    // although tau1 < tauD): install it now rather than re-parse the
    // copy on its first first-level hit. The inline caches carry over
    // too — same code, same successor.
    FastSeq &copy = fastL1Slots_[ins.entryIdx];
    copy = fs;
    copy.gen = dtbL1_->metaAt(ins.entryIdx).gen;
    copy.dispatchAdd = fs.dispatchAdd +
        fs.shortCount * (config_.timing.tau1 - config_.timing.tauD);
    return ins.entryIdx;
}

// The DTB family's one fast loop. Dtb2 adds the first-level buffer in
// front of the main DTB. Its inline caches live in the same FastSeq
// fields and name dtbL1 slots: every site predicts where its successor
// sits in the first-level buffer, which is where a Dtb2 step looks
// first. A first-level hit runs the L1 slot's lowering (fetched at
// tau1); a first-level miss that hits the main DTB promotes inside the
// loop and runs the main slot's lowering (fetched at tauD). Tiered adds
// the hotness profile and trace dispatch on a committed hit, and keeps
// to dtbStep while the recorder is active (every step must pass
// through it; recording windows are short). Only a main-DTB miss, an
// unfastable shape or an active recording takes dtbStep.
template <MachineKind K>
void
Machine::runDtbFast()
{
    constexpr bool TwoLevel = K == MachineKind::Dtb2;
    constexpr bool Tiered = K == MachineKind::Tiered;
    if (eventsOn()) {
        while (!halted_ && breakdown_.total() < sliceLimit_)
            dtbStep();
        return;
    }
    const uint32_t *vm_code = flat_->code.data();
    const int64_t *vm_imm = flat_->imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t tau_d = config_.timing.tauD;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const bool capture = config_.captureAddressTrace;
    Dtb *const dtb = dtb_;
    Dtb *const l1buf = dtbL1_.get();
    // The buffer a step looks in first, which its inline caches name.
    Dtb *const first = TwoLevel ? l1buf : dtb;
    auto &r = regs_;

    // Pending step-level charges plus register-resident micro-op
    // charges (n, sem_mem, l1, l2). "Now" in a step is
    // breakdown_.total(); here it is drained + cyc + n*tau1 + sem_mem,
    // where cyc mirrors p.cycles() so the loop head never has to sum
    // the Pending buckets.
    Pending p;
    uint64_t drained = breakdown_.total();
    uint64_t cyc = 0;
    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    // Step-level buckets mirrored in never-address-taken locals so the
    // per-step bumps stay in registers (p's address escapes into
    // drainPending, so p fields would be memory RMWs).
    uint64_t d_dir = 0, d_disp = 0, d_stage = 0, d_short = 0;
    uint64_t sp = sp_;
    uint64_t pc = pc_;
    uint64_t prev_pc = prevPc_;
    int64_t *stk = mem_.raw() + stack_base;
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    // The sequence executed last step: its inline cache predicts the
    // slot of the pc about to be looked up.
    FastSeq *site = nullptr;
    FastSeq *fs = nullptr;
    uint32_t idx = 0;
    uint64_t next = 0;
    // Dispatch cycles of the buffer lookups (and promotion) that
    // resolved this step's sequence.
    uint64_t lookup = 0;

#define VM_FLUSH()                                                     \
    do {                                                               \
        uint64_t vm_sem = n * tau1 + sem_mem;                          \
        p.microOps += n;                                               \
        p.semantic += vm_sem;                                          \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.shortInstrs += d_short;                                      \
        cyc += vm_sem;                                                 \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_disp = d_stage = d_short = 0;                        \
        sp_ = sp;                                                      \
        pc_ = pc;                                                      \
        if constexpr (Tiered)                                          \
            prevPc_ = prev_pc;                                         \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    while (!halted_) {
        {
            uint64_t now = drained + cyc + n * tau1 + sem_mem;
            if (now >= sliceLimit_)
                break;
            if (now >= sample_at) {
                VM_BAIL();
                drained = breakdown_.total();
                cyc = 0;
                budget_left =
                    config_.maxDirInstrs - dirInstrs_.value();
                takeSample();
                sample_at = nextSampleAt_;
            }
        }
        if (d_dir >= budget_left) {
            VM_BAIL();
            fatal("DIR instruction budget exhausted (%llu)",
                  static_cast<unsigned long long>(config_.maxDirInstrs));
        }

        // Inline-cache probe, then a full — still side-effect-free —
        // probe of the buffer the step looks in first. Nothing is
        // charged or counted unless the fast step commits below.
        idx = UINT32_MAX;
        if (!(Tiered && tier_->recording())) {
            if (site && site->icTag == pc &&
                first->icCheck(site->icIdx, pc)) {
                idx = site->icIdx;
            } else {
                idx = first->probeIdx(pc);
                if (idx != UINT32_MAX && site) {
                    site->icTag = pc;
                    site->icIdx = idx;
                }
            }
        }
        fs = nullptr;
        if constexpr (TwoLevel) {
            if (idx != UINT32_MAX) {
                fs = ensureSeqLowered(*l1buf, fastL1Slots_, idx, tau1);
                if (!fs->fastable ||
                    sp + fs->numPushes > stack_words) {
                    fs = nullptr;
                } else {
                    l1buf->hitAt(idx);
                    lookup = tau1;
                }
            } else {
                // First-level miss: the main DTB, through the site's
                // second inline cache.
                if (site && site->mainIcTag == pc &&
                    dtb->icCheck(site->mainIcIdx, pc)) {
                    idx = site->mainIcIdx;
                } else {
                    idx = dtb->probeIdx(pc);
                    if (idx != UINT32_MAX && site) {
                        site->mainIcTag = pc;
                        site->mainIcIdx = idx;
                    }
                }
                if (idx != UINT32_MAX) {
                    // Main-DTB hit: promote the entry into the
                    // first-level buffer — one tau1 store per short
                    // instruction copied — and run it from the main
                    // DTB at tauD.
                    fs = ensureSeqLowered(*dtb, fastSlots_, idx, tau_d);
                    if (!fs->fastable ||
                        sp + fs->numPushes > stack_words) {
                        fs = nullptr;
                    } else {
                        l1buf->countMiss();
                        dtb->hitAt(idx);
                        uint32_t copy = promoteFastSeq(pc, idx, *fs);
                        if (site && copy != UINT32_MAX) {
                            site->icTag = pc;
                            site->icIdx = copy;
                        }
                        lookup = tau1 + tau_d + fs->shortCount * tau1;
                    }
                }
            }
        } else if (idx != UINT32_MAX) {
            fs = ensureSeqLowered(*dtb, fastSlots_, idx, tau_d);
            if (!fs->fastable || sp + fs->numPushes > stack_words) {
                fs = nullptr;
            } else {
                dtb->hitAt(idx);
                lookup = tau_d;
            }
        }
        if (!fs) {
            // True DTB miss (translation), an unfastable shape or an
            // active recording: one full dtbStep (the lookups count
            // their hits and misses exactly as always), then re-prime
            // the inline cache from its outcome so the chain re-forms.
            VM_BAIL();
            uint64_t lookup_pc = pc;
            uint32_t hit = dtbStep();
            // Two-level sites predict first-level slots, and the step
            // left lookup_pc there (unless the insert was rejected).
            if constexpr (TwoLevel)
                hit = l1buf->probeIdx(lookup_pc);
            if (hit != UINT32_MAX) {
                if (site) {
                    site->icTag = lookup_pc;
                    site->icIdx = hit;
                }
                site = TwoLevel ?
                    ensureSeqLowered(*l1buf, fastL1Slots_, hit, tau1) :
                    ensureSeqLowered(*dtb, fastSlots_, hit, tau_d);
            } else {
                site = nullptr;
            }
            goto resync;
        }

        if constexpr (Tiered) {
            // Hotness profile and trace dispatch, as in dtbStep (the
            // recorder is known idle here).
            EntryMeta &meta = dtb->metaAt(idx);
            bool backedge = pc <= prev_pc;
            if (backedge)
                ++meta.backedgeCount;
            if (meta.anchorsTrace) {
                // The DTB lookup plus one trace-cache access and the
                // dispatch overhead, charged before the drain.
                uint64_t add =
                    lookup + tau_d + config_.tier.dispatchCycles;
                d_disp += add;
                cyc += add;
                if (const tier::Trace *trace = tier_->lookupTrace(pc)) {
                    ++traceEnters_;
                    // Trace boundaries are drain points.
                    VM_BAIL();
                    next = runTrace(pc, *trace);
                    site = nullptr;
                    if (next == haltBitAddr)
                        halted_ = true;
                    else
                        pc_ = next;
                    goto resync;
                }
                // Stale anchor (cleared by lookupTrace): fall through
                // to the ordinary tier-1 sequence path.
            }
            if (backedge && tier_->wantsRecording(meta, pc))
                tier_->beginRecording(pc);
            prev_pc = pc;
        }

        // Committed fast hit — the lookups' hit accounting is applied
        // above; add their cycles and the sequence's statically known
        // charges.
        ++d_dir;
        if (capture)
            addressTrace_.push_back(pc);
        {
            uint64_t add = lookup + fs->dispatchAdd;
            d_disp += add;
            d_stage += fs->stageAdd;
            cyc += add + fs->stageAdd;
        }
        l1 += fs->level1Add;
        d_short += fs->shortCount;

        {
            const int64_t *pv = fs->pushes.data();
            size_t np = fs->numPushes;
            for (size_t k = 0; k < np; ++k)
                stk[sp + k] = pv[k];
            sp += np;
        }

        if (fs->routineEntry >= 0) {
            vm_i = static_cast<size_t>(fs->routineEntry);
            goto vm_enter;
        }
    seq_done:
        if (fs->stackNext) {
            if (sp == 0) {
                // The step fatals before charging the pop.
                d_disp -= tau1;
                cyc -= tau1;
                --l1;
                VM_BAIL();
                fatal("operand stack underflow");
            }
            next = static_cast<uint64_t>(stk[--sp]);
        } else {
            next = fs->nextImm;
        }
        site = fs;
        if (next == haltBitAddr)
            halted_ = true;
        else
            pc = next;
        continue;

    resync:
        // A step or a trace ran with the locals drained: reload them.
        drained = breakdown_.total();
        cyc = 0;
        budget_left = config_.maxDirInstrs - dirInstrs_.value();
        sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
        sp = sp_;
        pc = pc_;
        prev_pc = prevPc_;
        stk = mem_.raw() + stack_base;
    }
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto seq_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

uint64_t
Machine::runTrace(uint64_t head, const tier::Trace &trace)
{
    uint32_t tidx = 0;
    uint32_t tgen = 0;
    bool resident = tier_->cache().refOf(head, tidx, tgen);
    uhm_assert(resident, "trace dispatched without a cache entry");
    FastTrace &ft = fastTraces_[tidx];
    if (ft.gen != tgen) {
        lowerFastTrace(trace, *flat_, config_.timing.tauD,
                       config_.timing.tau1, ft);
        ft.gen = tgen;
    }

    const uint32_t *vm_code = flat_->code.data();
    const int64_t *vm_imm = flat_->imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const uint64_t max_dir = config_.maxDirInstrs;
    const bool capture = config_.captureAddressTrace;
    const uint64_t loop_cycles = config_.tier.dispatchCycles;
    auto &r = regs_;

    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    uint64_t d_dir = 0, d_tdir = 0, d_disp = 0, d_stage = 0;
    uint64_t d_short = 0, d_tshort = 0, d_iter = 0;
    uint64_t sp = sp_;
    int64_t *stk = mem_.raw() + stack_base;
    const FastTraceStep *steps = ft.steps.data();
    const size_t nsteps = ft.steps.size();
    const FastTraceStep *stp = nullptr;
    const FastTraceItem *itp = nullptr;
    size_t si = 0, ki = 0, nitems = 0;
    uint64_t next = 0;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    Pending p;
    uint64_t dir_base = dirInstrs_.value();
    uint64_t budget_left = max_dir > dir_base ? max_dir - dir_base : 0;

#define VM_FLUSH()                                                     \
    do {                                                               \
        p.microOps += n;                                               \
        p.semantic += n * tau1 + sem_mem;                              \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.traceDirInstrs += d_tdir;                                    \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.shortInstrs += d_short;                                      \
        p.traceShortInstrs += d_tshort;                                \
        p.traceIterations += d_iter;                                   \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_tdir = d_disp = d_stage = 0;                         \
        d_short = d_tshort = d_iter = 0;                               \
        sp_ = sp;                                                      \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    for (;;) {
        ++d_iter;
        for (si = 0; si < nsteps; ++si) {
            stp = steps + si;
            if (!capture && d_dir + stp->nDir <= budget_left) {
                d_dir += stp->nDir;
                d_tdir += stp->nDir;
            } else {
                // Rare: address capture, or within nDir of the budget.
                p.dirInstrs += d_dir;
                p.traceDirInstrs += d_tdir;
                d_dir = d_tdir = 0;
                for (uint64_t addr : stp->src->dirAddrs) {
                    if (dirInstrs_.value() + p.dirInstrs >= max_dir) {
                        VM_BAIL();
                        fatal("DIR instruction budget exhausted "
                              "(%llu)",
                              static_cast<unsigned long long>(
                                  max_dir));
                    }
                    ++p.dirInstrs;
                    ++p.traceDirInstrs;
                    if (capture)
                        addressTrace_.push_back(addr);
                }
                dir_base = dirInstrs_.value() + p.dirInstrs;
                budget_left = max_dir > dir_base ? max_dir - dir_base
                    : 0;
            }
            d_disp += stp->dispatchAdd;
            d_stage += stp->stageAdd;
            l1 += stp->level1Add;
            d_short += stp->nBody;
            d_tshort += stp->nBody;
            itp = stp->items.data();
            nitems = stp->items.size();
            for (ki = 0; ki < nitems; ++ki) {
                if (itp[ki].routineEntry >= 0) {
                    vm_i = static_cast<size_t>(itp[ki].routineEntry);
                    goto vm_enter;
                } else {
                    if (sp >= stack_words) {
                        VM_BAIL();
                        fatal("operand stack overflow (%llu words)",
                              static_cast<unsigned long long>(
                                  stack_words));
                    }
                    stk[sp++] = itp[ki].pushValue;
                }
            item_done:;
            }
            if (stp->guarded) {
                if (sp == 0) {
                    VM_BAIL();
                    fatal("operand stack underflow");
                }
                next = static_cast<uint64_t>(stk[--sp]);
                if (next != stp->expect) {
                    ++p.traceExits;
                    prevPc_ = stp->lastAddr;
                    VM_BAIL();
                    return next;
                }
            }
        }
        if (!ft.loops) {
            ++p.traceExits;
            prevPc_ = ft.lastAddr;
            VM_BAIL();
            return ft.exitAddr;
        }
        d_disp += loop_cycles;
    }

#define VM_DONE_GOTO goto item_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

// Cached probes the icache once per image word an instruction spans,
// charging tauD on a hit and tau2 on a miss (chargeFetchCached); the
// Conventional instantiation compiles that loop away.
template <bool Cached>
void
Machine::runConventionalFast()
{
    if (eventsOn()) {
        while (!halted_ && breakdown_.total() < sliceLimit_)
            convStep();
        return;
    }
    const uint32_t *vm_code = flat_->code.data();
    const int64_t *vm_imm = flat_->imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t tau_d = config_.timing.tauD;
    SetAssocCache *const icache = icache_.get();
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const bool capture = config_.captureAddressTrace;
    auto &r = regs_;

    Pending p;
    uint64_t drained = breakdown_.total();
    uint64_t cyc = 0;
    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    // Register-resident step buckets; see runDtbFast.
    uint64_t d_dir = 0, d_disp = 0, d_stage = 0;
    uint64_t d_fetch = 0, d_decode = 0, d_refs = 0;
    uint64_t sp = sp_;
    uint64_t pc = pc_;
    int64_t *stk = mem_.raw() + stack_base;
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    FastConv *fc = nullptr;

#define VM_FLUSH()                                                     \
    do {                                                               \
        uint64_t vm_sem = n * tau1 + sem_mem;                          \
        p.microOps += n;                                               \
        p.semantic += vm_sem;                                          \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.decodedInstrs += d_dir;                                      \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.fetch += d_fetch;                                            \
        p.decode += d_decode;                                          \
        p.dirFetchRefs += d_refs;                                      \
        cyc += vm_sem;                                                 \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_disp = d_stage = d_fetch = d_decode = d_refs = 0;    \
        sp_ = sp;                                                      \
        pc_ = pc;                                                      \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    while (!halted_) {
        {
            uint64_t now = drained + cyc + n * tau1 + sem_mem;
            if (now >= sliceLimit_)
                break;
            if (now >= sample_at) {
                VM_BAIL();
                drained = breakdown_.total();
                cyc = 0;
                budget_left =
                    config_.maxDirInstrs - dirInstrs_.value();
                takeSample();
                sample_at = nextSampleAt_;
            }
        }
        if (d_dir >= budget_left) {
            VM_BAIL();
            fatal("DIR instruction budget exhausted (%llu)",
                  static_cast<unsigned long long>(config_.maxDirInstrs));
        }
        ++d_dir;
        if (capture)
            addressTrace_.push_back(pc);

        {
            const DecodeResult &res = decodeMemo_->decodeAt(pc);
            fc = &convFast_[res.index];
            if (!fc->valid) {
                // Lower lazily on first visit. The image is immutable,
                // so a lowered instruction never invalidates.
                const Staging &st = stagingAt(res);
                fc->opIdx = static_cast<uint16_t>(res.instr.op);
                uint64_t bits = res.nextBitAddr - pc;
                if constexpr (Cached) {
                    uint64_t first = pc / 64;
                    uint64_t last =
                        bits == 0 ? first : (pc + bits - 1) / 64;
                    fc->fetchWord = first;
                    fc->fetchRefs =
                        static_cast<uint32_t>(last - first + 1);
                    fc->fetchAdd = 0;
                } else {
                    fc->fetchRefs = static_cast<uint32_t>(
                        std::max<uint64_t>(1, (bits + 63) / 64));
                    fc->fetchAdd = fc->fetchRefs * tau2;
                }
                fc->decodeCycles = config_.costs.decodeCycles(res.cost);
                fc->pushes = st.pushes;
                fc->routineEntry = st.routine >= 0 ?
                    flat_->entry[static_cast<size_t>(st.routine)] : -1;
                fc->next = static_cast<uint8_t>(st.next);
                fc->nextImm = st.nextImm;
                fc->stageAdd = fc->pushes.size() * tau1;
                fc->dispatchAdd =
                    st.next == NextKind::Stack ? tau1 : 0;
                fc->level1Add =
                    static_cast<uint32_t>(fc->pushes.size()) +
                    (st.next == NextKind::Stack ? 1u : 0u);
                fc->valid = true;
            }
        }
        ++opcodeCounts_[fc->opIdx];
        {
            uint64_t fetch = fc->fetchAdd;
            if constexpr (Cached) {
                uint64_t word = fc->fetchWord;
                for (uint32_t k = 0; k < fc->fetchRefs; ++k, ++word)
                    fetch += icache->access(word * 8) ? tau_d : tau2;
            }
            uint64_t add = fetch + fc->decodeCycles + fc->stageAdd +
                fc->dispatchAdd;
            d_fetch += fetch;
            d_decode += fc->decodeCycles;
            d_stage += fc->stageAdd;
            d_disp += fc->dispatchAdd;
            cyc += add;
        }
        d_refs += fc->fetchRefs;
        l1 += fc->level1Add;

        if (sp + fc->pushes.size() > stack_words) {
            VM_BAIL();
            fatal("operand stack overflow (%llu words)",
                  static_cast<unsigned long long>(stack_words));
        }
        {
            const int64_t *pv = fc->pushes.data();
            size_t np = fc->pushes.size();
            for (size_t k = 0; k < np; ++k)
                stk[sp + k] = pv[k];
            sp += np;
        }

        if (fc->routineEntry >= 0) {
            vm_i = static_cast<size_t>(fc->routineEntry);
            goto vm_enter;
        }
    conv_done:
        switch (static_cast<NextKind>(fc->next)) {
          case NextKind::Imm:
            pc = fc->nextImm;
            break;
          case NextKind::Stack:
            if (sp == 0) {
                d_disp -= tau1;
                cyc -= tau1;
                --l1;
                VM_BAIL();
                fatal("operand stack underflow");
            }
            pc = static_cast<uint64_t>(stk[--sp]);
            break;
          case NextKind::Halt:
            halted_ = true;
            break;
        }
    }
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto conv_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

void
Machine::takeSample()
{
    uint64_t now = breakdown_.total();
    obs::OccupancySample s;
    s.cycle = now;
    s.dirInstrs = dirInstrs_.value();
    if (dtb_) {
        s.dtbHitsDelta = dtb_->hits() - lastDtbHits_;
        s.dtbMissesDelta = dtb_->misses() - lastDtbMisses_;
        lastDtbHits_ = dtb_->hits();
        lastDtbMisses_ = dtb_->misses();
        s.dtbSetOccupancy = dtb_->setOccupancy();
    }
    uint64_t resident = 0;
    for (uint32_t n : s.dtbSetOccupancy)
        resident += n;
    if (tier_) {
        const tier::TraceCache &cache = tier_->cache();
        s.traceHitsDelta = cache.hits() - lastTraceHits_;
        s.traceMissesDelta = cache.misses() - lastTraceMisses_;
        lastTraceHits_ = cache.hits();
        lastTraceMisses_ = cache.misses();
        s.traceSetOccupancy = cache.setOccupancy();
    }
    emitEvent(obs::EventKind::Sample, samples_.size(), resident);
    samples_.push_back(std::move(s));
    // Advance past the *current* total, not by one interval: a long
    // instruction that crosses several boundaries yields one sample,
    // not a burst of identical ones.
    nextSampleAt_ = (now / sampleEvery_ + 1) * sampleEvery_;
}

void
Machine::beginRun(std::vector<int64_t> input)
{
    const DirProgram &prog = image_->program();
    const MachineLayout &layout = config_.layout;

    // Reset machine state.
    regs_.fill(0);
    sp_ = 0;
    ras_.clear();
    output_.clear();
    inputStorage_ = std::move(input);
    input_ = &inputStorage_;
    inputPos_ = 0;
    halted_ = false;
    sliceLimit_ = UINT64_MAX;
    cycleBase_ = 0;
    breakdown_ = CycleBreakdown{};
    dirInstrs_.reset();
    decodedInstrs_.reset();
    translatedInstrs_.reset();
    microOps_.reset();
    shortInstrs_.reset();
    dirFetchRefs_.reset();
    traps_.reset();
    translateShortEmitted_.reset();
    traceDirInstrs_.reset();
    traceShortInstrs_.reset();
    traceIterations_.reset();
    traceEnters_.reset();
    traceExits_.reset();
    prevPc_ = 0;
    translateLatency_.reset();
    dtbResidency_.reset();
    dtbEvictOccupancy_.reset();
    tierTraceLen_.reset();
    sampleEvery_ = config_.sampleIntervalCycles;
    nextSampleAt_ = sampleEvery_;
    lastDtbHits_ = 0;
    lastDtbMisses_ = 0;
    lastTraceHits_ = 0;
    lastTraceMisses_ = 0;
    samples_.clear();
    if (config_.profileEvents)
        tracer_.enable(config_.profileEventCapacity);
    else
        tracer_.disable();
    trace_.clear();
    addressTrace_.clear();
    opcodeCounts_.assign(numOps, 0);
    mem_.resetStats();
    if (dtb_ && !sharedDtb_) {
        dtb_->invalidateAll();
        dtb_->resetStats();
    }
    if (dtbL1_) {
        dtbL1_->invalidateAll();
        dtbL1_->resetStats();
    }
    if (icache_) {
        icache_->flush();
        icache_->resetStats();
    }
    if (tier_)
        tier_->reset();

    // Lowered run images. Sized once per run and never reallocated
    // while it runs, so FastSeq pointers (the inline-cache sites) stay
    // stable across the whole slice sequence.
    if (dtb_)
        fastSlots_.assign(dtb_->numEntries(), FastSeq{});
    if (dtbL1_)
        fastL1Slots_.assign(dtbL1_->numEntries(), FastSeq{});
    if (tier_)
        fastTraces_.assign(tier_->cache().numEntries(), FastTrace{});
    if (decodesEveryInstr(config_.kind))
        convFast_.assign(image_->numInstrs(), FastConv{});
    // The micro-op core addresses the operand stack through a raw
    // pointer; materialize its backing storage up front.
    mem_.ensure(layout.stackBase + layout.stackWords);

    // Loader: display D[0] points at the globals; FSP starts just above
    // them. Loader pokes are not charged.
    uint64_t globals_base = layout.globalsBase();
    for (uint64_t d = 0; d <= layout.maxDepth; ++d)
        mem_.poke(layout.dispBase + d, 0);
    mem_.poke(layout.dispBase, static_cast<int64_t>(globals_base));
    for (uint64_t g = 0; g < prog.numGlobals; ++g)
        mem_.poke(globals_base + g, 0);
    regs_[regFsp] = static_cast<int64_t>(globals_base + prog.numGlobals);

    pc_ = image_->entryBitAddr();
}

uint64_t
Machine::runSlice(uint64_t max_cycles)
{
    if (halted_)
        return 0;
    uint64_t start = breakdown_.total();
    sliceLimit_ = max_cycles > UINT64_MAX - start ? UINT64_MAX :
        start + max_cycles;

    switch (config_.kind) {
      case MachineKind::Conventional: runConventionalFast<false>(); break;
      case MachineKind::Cached:       runConventionalFast<true>(); break;
      case MachineKind::Dtb:          runDtbFast<MachineKind::Dtb>(); break;
      case MachineKind::Dtb2:         runDtbFast<MachineKind::Dtb2>(); break;
      case MachineKind::Tiered:       runDtbFast<MachineKind::Tiered>(); break;
    }
    return breakdown_.total() - start;
}

void
Machine::flushDtb()
{
    if (!dtb_)
        return;
    uint64_t now = cycleBase_ + breakdown_.total();
    std::vector<Dtb::FlushedEntry> victims = dtb_->flush(now);
    for (const Dtb::FlushedEntry &v : victims) {
        // Cross-tenant victims (possible when flushing a shared buffer
        // in tag-and-share use) belong to other machines' histograms
        // and engines; only our own feed ours.
        if (v.asid != dtb_->asid())
            continue;
        dtbResidency_.record(v.residency);
        if (v.anchoredTrace && tier_)
            tier_->invalidateTrace(v.tag);
    }
    if (dtbL1_)
        dtbL1_->flush(now);
    emitEvent(obs::EventKind::DtbFlush, pc_, victims.size());
}

RunResult
Machine::finishRun()
{
    uhm_assert(halted_, "finishRun before HALT");
    // Drain residual residencies: entries still resident at halt never
    // reached the eviction path, and their lifetimes must show up in
    // the histogram too (they are the long ones).
    if (dtb_) {
        uint64_t now = cycleBase_ + breakdown_.total();
        for (uint64_t r : dtb_->residentResidencies(
                 now, sharedDtb_ ?
                     static_cast<int64_t>(dtb_->asid()) : -1))
            dtbResidency_.record(r);
    }

    RunResult result;
    result.output = std::move(output_);
    result.breakdown = breakdown_;
    result.cycles = breakdown_.total();
    result.dirInstrs = dirInstrs_;
    result.stats.add("micro_ops", microOps_.value());
    result.stats.add("short_instrs", shortInstrs_.value());
    result.stats.add("dir_fetch_refs", dirFetchRefs_.value());
    result.stats.merge(mem_.stats());
    result.trace = std::move(trace_);
    result.counters = registry_.snapshot();
    result.histograms = registry_.histogramSnapshot();
    result.samples = std::move(samples_);
    result.events = tracer_.events();
    result.eventsSeen = tracer_.seen();
    result.eventsDropped = tracer_.dropped();
    result.addressTrace = std::move(addressTrace_);
    if (decodesEveryInstr(config_.kind))
        result.opcodeCounts = opcodeCounts_;

    if (dtb_) {
        result.dtbHitRatio = dtb_->hitRatio();
        result.stats.add("dtb_hits", dtb_->hits());
        result.stats.add("dtb_misses", dtb_->misses());
        result.stats.merge(dtb_->stats());
    }
    if (dtbL1_) {
        result.dtbL1HitRatio = dtbL1_->hitRatio();
        result.stats.add("dtbl1_hits", dtbL1_->hits());
        result.stats.add("dtbl1_misses", dtbL1_->misses());
    }
    if (icache_) {
        result.cacheHitRatio = icache_->hitRatio();
        result.stats.add("icache_hits", icache_->hits());
        result.stats.add("icache_misses", icache_->misses());
    }
    if (tier_) {
        result.traceHitRatio = tier_->cache().hitRatio();
        result.traceCoverage = dirInstrs_ == 0 ? 0.0 :
            static_cast<double>(traceDirInstrs_.value()) /
            static_cast<double>(dirInstrs_.value());
        result.traceMeanIterLen = traceIterations_ == 0 ? 0.0 :
            static_cast<double>(traceDirInstrs_.value()) /
            static_cast<double>(traceIterations_.value());
        result.measuredG2 = tier_->compiledShortInstrs() == 0 ? 0.0 :
            static_cast<double>(breakdown_.translate2) /
            static_cast<double>(tier_->compiledShortInstrs());
        result.stats.add("trace_dir_instrs", traceDirInstrs_.value());
        result.stats.add("trace_short_instrs",
                         traceShortInstrs_.value());
        result.stats.add("trace_iterations", traceIterations_.value());
        result.stats.add("trace_enters", traceEnters_.value());
        result.stats.add("trace_exits", traceExits_.value());
    }

    result.measuredD = decodedInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.decode) /
        static_cast<double>(decodedInstrs_);
    result.measuredX = dirInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.semantic) /
        static_cast<double>(dirInstrs_);
    result.measuredG = translatedInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.translate) /
        static_cast<double>(translatedInstrs_);
    return result;
}

RunResult
Machine::run(const std::vector<int64_t> &input)
{
    beginRun(input);
    runSlice(UINT64_MAX);
    return finishRun();
}

RunResult
runProgram(const DirProgram &program, EncodingScheme scheme,
           const MachineConfig &config, const std::vector<int64_t> &input)
{
    std::unique_ptr<EncodedDir> image = encodeDir(program, scheme);
    Machine machine(*image, config);
    return machine.run(input);
}

} // namespace uhm
