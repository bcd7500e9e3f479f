#include "uhm/machine.hh"

#include <cstdlib>

#include "support/flags.hh"
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

bool
parseMachineKind(const std::string &name, MachineKind &out)
{
    static constexpr MachineKind kinds[] = {
        MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
        MachineKind::Dtb2, MachineKind::Tiered};
    return parseByName(name, kinds, machineKindName, out);
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

// ---- cold paths ------------------------------------------------------------

void
Machine::chargeFetchLevel2(uint64_t bits)
{
    uint64_t refs = std::max<uint64_t>(1, (bits + 63) / 64);
    breakdown_.fetch += refs * config_.timing.tau2;
    dirFetchRefs_ += refs;
    emitEvent(obs::EventKind::Fetch, pc_, refs);
}

std::span<const ShortInstr>
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
    return tr.code;
}

void
Machine::recordPc()
{
    tier::TierEngine::RecordOutcome ro = tier_->recordStep(pc_);
    if (ro.status == tier::TierEngine::RecordStatus::Closed) {
        // Tier-2 translation charge: construct each short instruction
        // of the fused body and store it into the trace cache's buffer
        // array.
        breakdown_.translate2 += ro.compile.compiledShorts *
            (config_.tier.gen2CyclesPerInstr + config_.timing.tauD);
        tierTraceLen_.record(ro.compile.steps);
        emitEvent(obs::EventKind::Translate2, ro.compile.head,
                  ro.compile.compiledShorts);
        if (ro.compile.evictedTrace)
            emitEvent(obs::EventKind::TraceEvict, ro.compile.evictedHead);
    } else if (ro.status == tier::TierEngine::RecordStatus::Aborted) {
        emitEvent(obs::EventKind::TraceAbort, pc_);
    }
}

// ---- the run loops --------------------------------------------------------
//
// One loop per organization family, each compiled twice: Events = false
// for every run without a tracer, Events = true for runs that record
// every per-instruction event. Every DIR instruction is a LoweredStep
// that the loop hands to the one step executor in vm_ops.inc; the loop
// itself keeps only its organization's policy. A loop batches charges
// in one Pending and the µop core's register buckets, and drains them
// before anything that reads or charges the machine's breakdown
// directly: a sample, a trace dispatch, the Figure 4 miss flow, the
// recorder hook, a fatal. An event of the Events instantiation is
// stamped with the loop's running total plus the current instruction's
// charges up to that event, which is where charging them one by one
// would put it. tests/stepped_reference.hh keeps that one-by-one
// engine, and dispatch_test and fuzz_test hold both instantiations
// byte-identical to it.

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
Machine::ensureSeqLowered(const Dtb &buf, FastSlots &slots,
                          uint32_t idx, uint64_t fetch_cost)
{
    FastSeq &fs = slots.seq[idx];
    uint64_t gen = buf.metaAt(idx).gen;
    if (slots.gen[idx] != gen) {
        // The entry's contents changed since this slot was lowered
        // (insert, evict or flush all bump the generation): relower,
        // and clear the slot's inline caches.
        lowerStep(buf.payloadAt(idx), *flat_, fetch_cost,
                  config_.timing.tau1, fs);
        fs.icTag = fs.mainIcTag = ~0ull;
        slots.gen[idx] = gen;
    }
    return &fs;
}

uint32_t
Machine::promoteFastSeq(uint64_t pc, uint32_t idx, const FastSeq &fs)
{
    Dtb::InsertOutcome ins = dtbL1_->insert(pc, dtb_->payloadAt(idx));
    if (!ins.retained)
        return UINT32_MAX;
    // The copy's lowering is the main entry's, fetched at tau1 instead
    // of tauD (unsigned arithmetic wraps, so the adjustment is exact
    // although tau1 < tauD): install it now rather than re-parse the
    // copy on its first first-level hit. The inline caches carry over
    // too — same code, same successor.
    FastSeq &copy = fastL1Slots_.seq[ins.entryIdx];
    copy = fs;
    fastL1Slots_.gen[ins.entryIdx] = dtbL1_->metaAt(ins.entryIdx).gen;
    copy.dispatchAdd = fs.dispatchAdd +
        fs.shortCount * (config_.timing.tau1 - config_.timing.tauD);
    return ins.entryIdx;
}

void
Machine::lowerConv(FastConv &fc, uint64_t pc, const DecodeResult &res)
{
    std::vector<ShortInstr> code;
    code.reserve(Staging::maxShortInstrs);
    lowerStaging(stageInstruction(res.instr, *image_, res.index), code);
    lowerStep(code, *flat_, 0, config_.timing.tau1, fc);
    fc.opIdx = static_cast<uint16_t>(res.instr.op);
    uint64_t bits = res.nextBitAddr - pc;
    if (icache_) {
        uint64_t first = pc / 64;
        uint64_t last = bits == 0 ? first : (pc + bits - 1) / 64;
        fc.fetchWord = first;
        fc.fetchRefs = static_cast<uint32_t>(last - first + 1);
        fc.fetchAdd = 0;
    } else {
        fc.fetchRefs = static_cast<uint32_t>(
            std::max<uint64_t>(1, (bits + 63) / 64));
        fc.fetchAdd = fc.fetchRefs * config_.timing.tau2;
    }
    fc.decodeCycles = config_.costs.decodeCycles(res.cost);
    fc.valid = true;
}

// The loops' shared state, the locals vm_ops.inc and its step executor
// run on. `b` is the loop's batched charges. Its address never escapes,
// so its fields stay in registers; a drain moves them into `p`, whose
// address drainPending takes. `cyc` mirrors the cycles batched in b, so
// the loop head never sums them: the machine's running total is
// drained + cyc + n*tau1 + sem_mem.
#define VM_LOCALS()                                                    \
    const uint32_t *vm_code = flat_->code.data();                      \
    const int64_t *vm_imm = flat_->imm.data();                         \
    const uint64_t tau1 = config_.timing.tau1;                         \
    const uint64_t tau2 = config_.timing.tau2;                         \
    const uint64_t level1_words = mem_.level1Words();                  \
    const uint64_t stack_base = config_.layout.stackBase;              \
    const uint64_t stack_words = config_.layout.stackWords;            \
    const bool capture = config_.captureAddressTrace;                  \
    auto &r = regs_;                                                   \
    Pending b, p;                                                      \
    uint64_t cyc = 0, n = 0, sem_mem = 0, l1 = 0, l2 = 0;              \
    uint64_t sp = sp_;                                                 \
    int64_t *stk = mem_.raw() + stack_base;                            \
    size_t vm_i = 0, vm_ii = 0;                                        \
    uint32_t vm_w = 0;                                                 \
    const LoweredStep *vm_st = nullptr;                                \
    uint64_t vm_next = 0
// Move the µop core's buckets and b into p, and publish sp. A bucket a
// loop never bumps is a constant 0, and its add compiles away. The
// tier-1 loops publish pc themselves, before the cold calls that read
// it and at the end of a slice.
#define VM_FLUSH()                                                     \
    do {                                                               \
        uint64_t vm_sem = n * tau1 + sem_mem;                          \
        p.microOps += n;                                               \
        p.semantic += vm_sem;                                          \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.fetch += b.fetch;                                            \
        p.decode += b.decode;                                          \
        p.stage += b.stage;                                            \
        p.dispatch += b.dispatch;                                      \
        p.dirInstrs += b.dirInstrs;                                    \
        p.decodedInstrs += b.decodedInstrs;                            \
        p.shortInstrs += b.shortInstrs;                                \
        p.dirFetchRefs += b.dirFetchRefs;                              \
        p.traceDirInstrs += b.traceDirInstrs;                          \
        p.traceShortInstrs += b.traceShortInstrs;                      \
        p.traceIterations += b.traceIterations;                        \
        p.traceExits += b.traceExits;                                  \
        cyc += vm_sem;                                                 \
        n = sem_mem = l1 = l2 = 0;                                     \
        b = Pending{};                                                 \
        sp_ = sp;                                                      \
    } while (0)
// Apply everything batched to the machine.
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)
// After a drained cold call that charged the breakdown directly.
#define VM_RELOAD()                                                    \
    do {                                                               \
        drained = breakdown_.total();                                  \
        cyc = 0;                                                       \
        budget_left = config_.maxDirInstrs - dirInstrs_.value();       \
    } while (0)
// The running total, for an event stamp.
#define VM_NOW() (drained + cyc + n * tau1 + sem_mem)
// The tier-1 loops' head: end the slice, take a due sample, stop at
// the DIR budget.
#define VM_LOOP_HEAD()                                                 \
    {                                                                  \
        uint64_t now = VM_NOW();                                       \
        if (now >= sliceLimit_)                                        \
            break;                                                     \
        if (now >= sample_at) {                                        \
            VM_BAIL();                                                 \
            VM_RELOAD();                                               \
            takeSample();                                              \
            sample_at = nextSampleAt_;                                 \
        }                                                              \
        if (b.dirInstrs >= budget_left) {                              \
            VM_BAIL();                                                 \
            fatal("DIR instruction budget exhausted (%llu)",           \
                  static_cast<unsigned long long>(                     \
                      config_.maxDirInstrs));                          \
        }                                                              \
    }

// The DTB family's loop. Dtb2 adds the first-level buffer in front of
// the main DTB. Its inline caches live in the same FastSeq fields and
// name dtbL1 slots: every site predicts where its successor sits in the
// first-level buffer, which is where a Dtb2 lookup looks first. A
// first-level hit runs the L1 slot's lowering (fetched at tau1); a
// first-level miss that hits the main DTB promotes inside the loop and
// runs the main slot's lowering (fetched at tauD). Tiered adds the
// hotness profile and trace dispatch on a hit, and the recorder hook at
// the loop head while a recording is active. A main-DTB miss drains,
// runs missFlow and then the translation it returns, lowered, through
// the same commit path as a hit.
template <MachineKind K, bool Events>
void
Machine::runDtbFast()
{
    constexpr bool TwoLevel = K == MachineKind::Dtb2;
    constexpr bool Tiered = K == MachineKind::Tiered;
    VM_LOCALS();
    const uint64_t tau_d = config_.timing.tauD;
    Dtb *const dtb = dtb_;
    Dtb *const l1buf = dtbL1_.get();
    // The buffer a lookup looks in first, which its inline caches name.
    Dtb *const first = TwoLevel ? l1buf : dtb;
    uint64_t drained = breakdown_.total();
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    uint64_t pc = pc_;
    uint64_t prev_pc = prevPc_;
    // The sequence executed last step: its inline cache predicts the
    // slot of the pc about to be looked up.
    FastSeq *site = nullptr;
    FastSeq *fs = nullptr;
    // The lowering of a miss's translation that the DTB did not retain.
    FastSeq rejected;
    uint32_t idx = 0;
    // Dispatch cycles of the buffer lookups (and promotion) that
    // resolved this step's sequence.
    uint64_t lookup = 0;

    while (!halted_) {
        VM_LOOP_HEAD();
        if constexpr (Tiered) {
            if (tier_->recording()) {
                // Every pc interpreted while recording passes the
                // recorder, which may close, compile and install.
                VM_BAIL();
                pc_ = pc;
                recordPc();
                VM_RELOAD();
            }
        }

        // Inline-cache probe, then a full — still side-effect-free —
        // probe of the buffer a lookup looks in first. Nothing is
        // charged or counted until a hit or a miss commits below.
        if (site && site->icTag == pc && first->icCheck(site->icIdx, pc)) {
            idx = site->icIdx;
        } else {
            idx = first->probeIdx(pc);
            if (idx != UINT32_MAX && site) {
                site->icTag = pc;
                site->icIdx = idx;
            }
        }
        fs = nullptr;
        if constexpr (TwoLevel) {
            if (idx != UINT32_MAX) {
                fs = ensureSeqLowered(*l1buf, fastL1Slots_, idx, tau1);
                l1buf->hitAt(idx);
                lookup = tau1;
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
                    l1buf->countMiss();
                    dtb->hitAt(idx);
                    lookup = tau1 + tau_d + fs->shortCount * tau1;
                    if constexpr (Events) {
                        uint64_t at = VM_NOW() + tau1 + tau_d;
                        tracer_.record(obs::EventKind::DtbHit, at, pc);
                        tracer_.record(obs::EventKind::Promote,
                                       VM_NOW() + lookup, pc,
                                       fs->shortCount);
                    }
                    uint32_t copy = promoteFastSeq(pc, idx, *fs);
                    if (site && copy != UINT32_MAX) {
                        site->icTag = pc;
                        site->icIdx = copy;
                    }
                }
            }
        } else if (idx != UINT32_MAX) {
            fs = ensureSeqLowered(*dtb, fastSlots_, idx, tau_d);
            dtb->hitAt(idx);
            lookup = tau_d;
            if constexpr (Events)
                tracer_.record(obs::EventKind::DtbHit, VM_NOW() + tau_d,
                               pc);
        }
        if (!fs) {
            // Main-DTB miss: charge and count the lookups that missed,
            // then Figure 4's miss flow, with the locals drained so its
            // charges and events land in order. The translation then
            // runs like a hit, from its slot's lowering or, when the
            // DTB did not retain it, from a one-off lowering.
            VM_BAIL();
            pc_ = pc;
            if constexpr (TwoLevel) {
                breakdown_.dispatch += tau1;
                l1buf->countMiss();
            }
            breakdown_.dispatch += tau_d;
            dtb->countMiss();
            std::span<const ShortInstr> code = missFlow();
            if constexpr (TwoLevel)
                l1buf->insert(pc, code);
            idx = dtb->probeIdx(pc);
            if (idx != UINT32_MAX) {
                fs = ensureSeqLowered(*dtb, fastSlots_, idx, tau_d);
            } else {
                lowerStep(code, *flat_, tau_d, tau1, rejected);
                rejected.icTag = rejected.mainIcTag = ~0ull;
                fs = &rejected;
            }
            VM_RELOAD();
            lookup = 0;
            prev_pc = pc;
            goto commit;
        }

        if constexpr (Tiered) {
            // Hotness profile: a backward transfer into a resident
            // entry is a backedge (loops close with one).
            EntryMeta &meta = dtb->metaAt(idx);
            bool backedge = pc <= prev_pc;
            if (backedge)
                ++meta.backedgeCount;
            if (meta.anchorsTrace && !tier_->recording()) {
                // Trace dispatch: the DTB lookup plus one trace-cache
                // access and the dispatch overhead, paid once per entry
                // rather than once per instruction.
                uint64_t add =
                    lookup + tau_d + config_.tier.dispatchCycles;
                b.dispatch += add;
                cyc += add;
                lookup = 0;
                uint32_t tidx = tier_->lookupTrace(pc);
                if (tidx != tier::TraceCache::npos) {
                    ++traceEnters_;
                    // Trace boundaries are drain points.
                    VM_BAIL();
                    if constexpr (Events)
                        emitEvent(obs::EventKind::TraceEnter, pc,
                                  tier_->cache().payloadAt(tidx).dirCount);
                    uint64_t iters_before =
                        Events ? traceIterations_.value() : 0;
                    vm_next = runTrace(tidx);
                    if constexpr (Events)
                        emitEvent(obs::EventKind::TraceExit, vm_next,
                                  traceIterations_.value() -
                                      iters_before);
                    site = nullptr;
                    if (vm_next == haltBitAddr)
                        halted_ = true;
                    else
                        pc = vm_next;
                    // The trace ran with the locals drained: reload.
                    VM_RELOAD();
                    sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
                    sp = sp_;
                    prev_pc = prevPc_;
                    stk = mem_.raw() + stack_base;
                    continue;
                }
                // Stale anchor (cleared by lookupTrace): fall through
                // to the ordinary tier-1 sequence path, the lookup
                // already charged.
            }
            if (backedge && tier_->wantsRecording(meta, pc)) {
                tier_->beginRecording(pc);
                if constexpr (Events)
                    tracer_.record(obs::EventKind::TraceRecord,
                                   VM_NOW() + lookup, pc);
            }
            prev_pc = pc;
        }

    commit:
        // The lookups' hit or miss accounting is applied above; add
        // their cycles, and run the sequence.
        ++b.dirInstrs;
        if (capture)
            addressTrace_.push_back(pc);
        b.dispatch += lookup;
        cyc += lookup;
        b.shortInstrs += fs->shortCount;
        vm_st = fs;
        goto vm_step;
    seq_done:
        site = fs;
        if (vm_next == haltBitAddr)
            halted_ = true;
        else
            pc = vm_next;
    }
    VM_BAIL();
    pc_ = pc;
    prevPc_ = prev_pc;
    return;

#define VM_STEP_DONE_GOTO goto seq_done
#include "uhm/vm_ops.inc"
#undef VM_STEP_DONE_GOTO
}

uint64_t
Machine::runTrace(uint32_t idx)
{
    const tier::TraceCache &cache = tier_->cache();
    FastTrace &ft = fastTraces_[idx];
    uint64_t gen = cache.metaAt(idx).gen;
    if (ft.gen != gen) {
        lowerFastTrace(cache.payloadAt(idx), *flat_, config_.timing.tauD,
                       config_.timing.tau1, ft);
        ft.gen = gen;
    }

    VM_LOCALS();
    const uint64_t max_dir = config_.maxDirInstrs;
    const uint64_t budget_left =
        max_dir > dirInstrs_.value() ? max_dir - dirInstrs_.value() : 0;
    const FastTraceStep *const steps = ft.steps.data();
    const size_t nsteps = ft.steps.size();
    const FastTraceStep *stp = nullptr;
    size_t si = 0;

    for (;;) {
        ++b.traceIterations;
        for (si = 0; si < nsteps; ++si) {
            stp = steps + si;
            if (!capture && b.dirInstrs + stp->nDir <= budget_left) {
                b.dirInstrs += stp->nDir;
                b.traceDirInstrs += stp->nDir;
            } else {
                // Rare: address capture, or within nDir of the budget.
                for (uint64_t addr : stp->src->dirAddrs) {
                    if (b.dirInstrs >= budget_left) {
                        VM_BAIL();
                        fatal("DIR instruction budget exhausted "
                              "(%llu)",
                              static_cast<unsigned long long>(
                                  max_dir));
                    }
                    ++b.dirInstrs;
                    ++b.traceDirInstrs;
                    if (capture)
                        addressTrace_.push_back(addr);
                }
            }
            b.shortInstrs += stp->shortCount;
            b.traceShortInstrs += stp->shortCount;
            vm_st = stp;
            goto vm_step;
        step_done:
            if (vm_next != stp->nextImm) {
                // A guard saw another successor: side-exit to it.
                ++b.traceExits;
                prevPc_ = stp->lastAddr;
                VM_BAIL();
                return vm_next;
            }
        }
        if (!ft.loops) {
            ++b.traceExits;
            prevPc_ = ft.lastAddr;
            VM_BAIL();
            return ft.exitAddr;
        }
        b.dispatch += config_.tier.dispatchCycles;
    }

#define VM_STEP_DONE_GOTO goto step_done
#include "uhm/vm_ops.inc"
#undef VM_STEP_DONE_GOTO
}

// Cached probes the icache once per image word an instruction spans,
// charging tauD on a hit and tau2 on a miss; the Conventional
// instantiations compile that loop away.
template <bool Cached, bool Events>
void
Machine::runConventionalFast()
{
    VM_LOCALS();
    const uint64_t tau_d = config_.timing.tauD;
    SetAssocCache *const icache = icache_.get();
    uint64_t drained = breakdown_.total();
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    uint64_t pc = pc_;
    FastConv *fc = nullptr;

    while (!halted_) {
        VM_LOOP_HEAD();
        ++b.dirInstrs;
        ++b.decodedInstrs;
        if (capture)
            addressTrace_.push_back(pc);

        if (fc && fc->succ) {
            // The static successor, linked on an earlier pass: pc is
            // its nextImm, and its lowering needs no lookup.
            fc = fc->succ;
        } else {
            FastConv *from = fc;
            const DecodeResult &res = decodeMemo_->decodeAt(pc);
            fc = &convFast_[res.index];
            // Lower on first visit. The image is immutable, so a
            // lowered instruction never invalidates.
            if (!fc->valid)
                lowerConv(*fc, pc, res);
            if (from && !from->stackNext)
                from->succ = fc;
        }
        ++opcodeCounts_[fc->opIdx];
        {
            uint64_t fetch = fc->fetchAdd;
            if constexpr (Cached) {
                uint64_t byte = fc->fetchWord * 8;
                fetch += icache->access(byte, fc->icHint[0]) ? tau_d
                    : tau2;
                for (uint32_t k = 1; k < fc->fetchRefs; ++k) {
                    byte += 8;
                    fetch += icache->access(byte, fc->icHint[1]) ? tau_d
                        : tau2;
                }
            }
            if constexpr (Events) {
                uint64_t at = VM_NOW() + fetch;
                tracer_.record(obs::EventKind::Fetch, at, pc,
                               fc->fetchRefs);
                tracer_.record(obs::EventKind::Decode,
                               at + fc->decodeCycles, pc,
                               fc->decodeCycles);
            }
            b.fetch += fetch;
            b.decode += fc->decodeCycles;
            cyc += fetch + fc->decodeCycles;
        }
        b.dirFetchRefs += fc->fetchRefs;
        vm_st = fc;
        goto vm_step;
    conv_done:
        if (vm_next == haltBitAddr)
            halted_ = true;
        else
            pc = vm_next;
    }
    VM_BAIL();
    pc_ = pc;
    return;

#define VM_STEP_DONE_GOTO goto conv_done
#include "uhm/vm_ops.inc"
#undef VM_STEP_DONE_GOTO
}

#undef VM_LOOP_HEAD
#undef VM_NOW
#undef VM_RELOAD
#undef VM_BAIL
#undef VM_FLUSH
#undef VM_LOCALS

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
    addressTrace_.clear();
    if (decodesEveryInstr(config_.kind))
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

    // Lowered run images: filled by the first run and kept by every
    // later one, never reallocated, so FastSeq pointers (the
    // inline-cache sites) stay stable. No slot needs clearing: a
    // buffer lowering is valid exactly while its entry's generation,
    // and so its contents, is unchanged, and a conventional lowering
    // depends only on the immutable image.
    auto size = [](auto &slots, size_t n) {
        if (slots.size() != n)
            slots.assign(n, {}); // one copy loop, not n constructors
    };
    if (dtb_)
        fastSlots_.resize(dtb_->numEntries());
    if (dtbL1_)
        fastL1Slots_.resize(dtbL1_->numEntries());
    if (tier_)
        size(fastTraces_, tier_->cache().numEntries());
    if (decodesEveryInstr(config_.kind))
        size(convFast_, image_->numInstrs());
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

    const bool ev = eventsOn();
    switch (config_.kind) {
      case MachineKind::Conventional:
        ev ? runConventionalFast<false, true>() :
             runConventionalFast<false, false>();
        break;
      case MachineKind::Cached:
        ev ? runConventionalFast<true, true>() :
             runConventionalFast<true, false>();
        break;
      case MachineKind::Dtb:
        ev ? runDtbFast<MachineKind::Dtb, true>() :
             runDtbFast<MachineKind::Dtb, false>();
        break;
      case MachineKind::Dtb2:
        ev ? runDtbFast<MachineKind::Dtb2, true>() :
             runDtbFast<MachineKind::Dtb2, false>();
        break;
      case MachineKind::Tiered:
        ev ? runDtbFast<MachineKind::Tiered, true>() :
             runDtbFast<MachineKind::Tiered, false>();
        break;
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
        dtb_->recordResidencies(
            now, sharedDtb_ ? static_cast<int64_t>(dtb_->asid()) : -1,
            dtbResidency_);
    }

    RunResult result;
    result.output = std::move(output_);
    result.breakdown = breakdown_;
    result.cycles = breakdown_.total();
    result.dirInstrs = dirInstrs_;
    result.counters = registry_.snapshot();
    result.histograms = registry_.histogramSnapshot();
    result.samples = std::move(samples_);
    result.eventsSeen = tracer_.seen();
    result.eventsDropped = tracer_.dropped();
    result.events = tracer_.take();
    result.addressTrace = std::move(addressTrace_);
    if (decodesEveryInstr(config_.kind))
        result.opcodeCounts = opcodeCounts_;

    if (dtb_)
        result.dtbHitRatio = dtb_->hitRatio();
    if (dtbL1_)
        result.dtbL1HitRatio = dtbL1_->hitRatio();
    if (icache_)
        result.cacheHitRatio = icache_->hitRatio();
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
