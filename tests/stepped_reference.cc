#include "stepped_reference.hh"

#include "support/logging.hh"
#include "support/wrap.hh"

namespace uhm
{

RunResult
SteppedReference::run(const std::vector<int64_t> &input)
{
    m_.beginRun(input);
    runSlice(UINT64_MAX);
    return m_.finishRun();
}

uint64_t
SteppedReference::runSlice(uint64_t max_cycles)
{
    if (m_.halted_)
        return 0;
    uint64_t start = m_.breakdown_.total();
    m_.sliceLimit_ = max_cycles > UINT64_MAX - start ? UINT64_MAX :
        start + max_cycles;
    while (!m_.halted_ && m_.breakdown_.total() < m_.sliceLimit_) {
        if (decodesEveryInstr(m_.config_.kind))
            convStep();
        else
            dtbStep();
    }
    return m_.breakdown_.total() - start;
}

std::vector<obs::Event>
SteppedReference::events(const Machine &machine)
{
    return machine.tracer_.events();
}

void
SteppedReference::maybeSample()
{
    if (m_.sampleEvery_ == 0)
        return;
    if (m_.breakdown_.total() >= m_.nextSampleAt_)
        m_.takeSample();
}

// ---- operand stack --------------------------------------------------------

void
SteppedReference::pushStack(int64_t value, uint64_t &bucket)
{
    if (m_.sp_ >= m_.config_.layout.stackWords)
        fatal("operand stack overflow (%llu words)",
              static_cast<unsigned long long>(
                  m_.config_.layout.stackWords));
    uint64_t before = m_.mem_.cycles();
    m_.mem_.write(m_.config_.layout.stackBase + m_.sp_, value);
    ++m_.sp_;
    bucket += m_.mem_.cycles() - before;
}

int64_t
SteppedReference::popStack(uint64_t &bucket)
{
    if (m_.sp_ == 0)
        fatal("operand stack underflow");
    --m_.sp_;
    uint64_t before = m_.mem_.cycles();
    int64_t v = m_.mem_.read(m_.config_.layout.stackBase + m_.sp_);
    bucket += m_.mem_.cycles() - before;
    return v;
}

// ---- IU1: semantic-routine execution --------------------------------------
//
// One instance of the micro-op core that applies its charges when the
// routine retires, so a step leaves the counters, the breakdown and the
// memory accounting current for the events and samples that follow it.
// The fragment names the machine's members; the references below alias
// them.

void
SteppedReference::callRoutine(size_t entry)
{
    MainMemory &mem_ = m_.mem_;
    const MachineConfig &config_ = m_.config_;
    std::vector<uint64_t> &ras_ = m_.ras_;
    const std::vector<int64_t> *&input_ = m_.input_;
    size_t &inputPos_ = m_.inputPos_;
    std::vector<int64_t> &output_ = m_.output_;
    const uint32_t *vm_code = m_.flat_->code.data();
    const int64_t *vm_imm = m_.flat_->imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    auto &r = m_.regs_;

    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    uint64_t sp = m_.sp_;
    int64_t *stk = mem_.raw() + stack_base;
    size_t vm_i = entry, vm_ii = 0;
    uint32_t vm_w = 0;
    VmFault vm_fault = VmFault::RoutineOverrun;

#define VM_BAIL()                                                      \
    do {                                                               \
        m_.microOps_ += n;                                             \
        m_.breakdown_.semantic += n * tau1 + sem_mem;                  \
        mem_.chargeBatch(l1, l2);                                      \
        m_.sp_ = sp;                                                   \
    } while (0)
#define VM_FAULT(code)                                                 \
    do {                                                               \
        vm_fault = (code);                                             \
        goto vm_fault_exit;                                            \
    } while (0)

    goto vm_enter;
routine_done:
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto routine_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_FAULT
#undef VM_BAIL
}

// ---- fetch ----------------------------------------------------------------

void
SteppedReference::chargeFetchCached(uint64_t bit_addr, uint64_t bits)
{
    uint64_t first = bit_addr / 64;
    uint64_t last = bits == 0 ? first : (bit_addr + bits - 1) / 64;
    for (uint64_t word = first; word <= last; ++word) {
        bool hit = m_.icache_->access(word * 8);
        m_.breakdown_.fetch += hit ? m_.config_.timing.tauD :
            m_.config_.timing.tau2;
        ++m_.dirFetchRefs_;
    }
    m_.emitEvent(obs::EventKind::Fetch, bit_addr, last - first + 1);
}

// ---- execution ------------------------------------------------------------

void
SteppedReference::executeStaged(const Staging &staging)
{
    for (int64_t v : staging.pushList())
        pushStack(v, m_.breakdown_.stage);
    if (staging.routine >= 0) {
        int32_t entry =
            m_.flat_->entry[static_cast<size_t>(staging.routine)];
        if (entry >= 0)
            callRoutine(static_cast<size_t>(entry));
    }
    switch (staging.next) {
      case NextKind::Imm:
        m_.pc_ = staging.nextImm;
        break;
      case NextKind::Stack:
        m_.pc_ = static_cast<uint64_t>(popStack(m_.breakdown_.dispatch));
        break;
      case NextKind::Halt:
        m_.halted_ = true;
        break;
    }
}

void
SteppedReference::convStep()
{
    maybeSample();
    if (m_.dirInstrs_ >= m_.config_.maxDirInstrs)
        fatal("DIR instruction budget exhausted (%llu)",
              static_cast<unsigned long long>(m_.config_.maxDirInstrs));
    ++m_.dirInstrs_;
    ++m_.decodedInstrs_;
    if (m_.config_.captureAddressTrace)
        m_.addressTrace_.push_back(m_.pc_);

    const DecodeResult &res = m_.decodeMemo_->decodeAt(m_.pc_);
    ++m_.opcodeCounts_[static_cast<size_t>(res.instr.op)];
    uint64_t bits = res.nextBitAddr - m_.pc_;
    if (m_.config_.kind == MachineKind::Cached)
        chargeFetchCached(m_.pc_, bits);
    else
        m_.chargeFetchLevel2(bits);
    uint64_t decode_cycles = m_.config_.costs.decodeCycles(res.cost);
    m_.breakdown_.decode += decode_cycles;
    m_.emitEvent(obs::EventKind::Decode, m_.pc_, decode_cycles);
    executeStaged(stageInstruction(res.instr, *m_.image_, res.index));
}

void
SteppedReference::executeShort(const ShortInstr &si)
{
    switch (si.op) {
      case SOp::PUSH:
        uhm_assert(si.mode == SMode::Imm,
                   "translations push immediates only");
        pushStack(si.operand, m_.breakdown_.stage);
        break;
      case SOp::CALL: {
        uhm_assert(si.operand >= 0 &&
                   static_cast<size_t>(si.operand) <
                       m_.flat_->entry.size(),
                   "CALL to unknown routine id");
        int32_t entry = m_.flat_->entry[static_cast<size_t>(si.operand)];
        if (entry >= 0)
            callRoutine(static_cast<size_t>(entry));
        break;
      }
      case SOp::POP:
        panic("translations contain no POP");
      case SOp::INTERP:
        panic("INTERP outside the dispatch loop");
    }
}

uint64_t
SteppedReference::executeShortSequence(std::span<const ShortInstr> code,
                                       uint64_t fetch_cost)
{
    for (const ShortInstr &si : code) {
        // IU2 fetches each short instruction from the buffer array.
        m_.breakdown_.dispatch += fetch_cost;
        ++m_.shortInstrs_;
        if (si.op == SOp::INTERP) {
            if (si.mode == SMode::Stack)
                return static_cast<uint64_t>(
                    popStack(m_.breakdown_.dispatch));
            return static_cast<uint64_t>(si.operand);
        }
        executeShort(si);
    }
    panic("PSDER sequence did not end with INTERP");
}

void
SteppedReference::dtbStep()
{
    const MachineConfig &config = m_.config_;
    CycleBreakdown &bd = m_.breakdown_;
    maybeSample();
    if (m_.dirInstrs_ >= config.maxDirInstrs)
        fatal("DIR instruction budget exhausted (%llu)",
              static_cast<unsigned long long>(config.maxDirInstrs));

    // Recorder hook (Tiered): report the pc about to be interpreted.
    if (m_.tier_ && m_.tier_->recording())
        m_.recordPc();

    // Empty until a buffer or the translator supplies it: every
    // translation ends in an INTERP.
    std::span<const ShortInstr> code;
    uint64_t fetch_cost = config.timing.tauD;

    // First-level translation buffer (Dtb2): a tau1-speed lookup.
    if (m_.dtbL1_) {
        bd.dispatch += config.timing.tau1;
        uint32_t l1 = m_.dtbL1_->lookup(m_.pc_);
        if (l1 != Dtb::npos) {
            code = m_.dtbL1_->payloadAt(l1);
            fetch_cost = config.timing.tau1;
        }
    }

    if (code.empty()) {
        // INTERP presents the DIR address to the associative address
        // array (one DTB-array access).
        bd.dispatch += config.timing.tauD;
        uint32_t idx = m_.dtb_->lookup(m_.pc_);
        if (idx == Dtb::npos) {
            code = m_.missFlow();
            if (m_.dtbL1_)
                m_.dtbL1_->insert(m_.pc_, code);
        } else {
            code = m_.dtb_->payloadAt(idx);
            m_.emitEvent(obs::EventKind::DtbHit, m_.pc_);
            if (m_.dtbL1_) {
                // Promote into the first-level buffer: one tau1 store
                // per short instruction copied.
                bd.dispatch += code.size() * config.timing.tau1;
                m_.dtbL1_->insert(m_.pc_, code);
                m_.emitEvent(obs::EventKind::Promote, m_.pc_, code.size());
            }
            if (m_.tier_) {
                // Hotness profile: a backward transfer into a resident
                // entry is a backedge (loops close with one).
                EntryMeta &meta = m_.dtb_->metaAt(idx);
                bool backedge = m_.pc_ <= m_.prevPc_;
                if (backedge)
                    ++meta.backedgeCount;
                if (meta.anchorsTrace && !m_.tier_->recording()) {
                    // Trace dispatch: one trace-cache access plus the
                    // dispatch overhead, paid once per entry rather
                    // than once per instruction. runTrace counts the
                    // head itself.
                    bd.dispatch += config.timing.tauD +
                        config.tier.dispatchCycles;
                    uint32_t tidx = m_.tier_->lookupTrace(m_.pc_);
                    if (tidx != tier::TraceCache::npos) {
                        ++m_.traceEnters_;
                        m_.emitEvent(
                            obs::EventKind::TraceEnter, m_.pc_,
                            m_.tier_->cache().payloadAt(tidx).dirCount);
                        uint64_t iters_before =
                            m_.traceIterations_.value();
                        uint64_t next = runTrace(tidx);
                        m_.emitEvent(obs::EventKind::TraceExit, next,
                                     m_.traceIterations_.value() -
                                         iters_before);
                        if (next == haltBitAddr)
                            m_.halted_ = true;
                        else
                            m_.pc_ = next;
                        return;
                    }
                    // Stale anchor (cleared by lookupTrace): fall back
                    // to the ordinary tier-1 path.
                }
                if (backedge && m_.tier_->wantsRecording(meta, m_.pc_)) {
                    m_.tier_->beginRecording(m_.pc_);
                    m_.emitEvent(obs::EventKind::TraceRecord, m_.pc_);
                }
            }
        }
    }

    ++m_.dirInstrs_;
    if (config.captureAddressTrace)
        m_.addressTrace_.push_back(m_.pc_);
    m_.prevPc_ = m_.pc_;
    uint64_t next = executeShortSequence(code, fetch_cost);
    if (next == haltBitAddr)
        m_.halted_ = true;
    else
        m_.pc_ = next;
}

uint64_t
SteppedReference::runTrace(uint32_t idx)
{
    const MachineConfig &config = m_.config_;
    const tier::Trace &trace = m_.tier_->cache().payloadAt(idx);
    for (;;) {
        ++m_.traceIterations_;
        for (const tier::TraceStep &step : trace.steps) {
            // Every DIR instruction the step covers counts as if tier 1
            // had interpreted it.
            for (uint64_t addr : step.dirAddrs) {
                if (m_.dirInstrs_ >= config.maxDirInstrs)
                    fatal("DIR instruction budget exhausted (%llu)",
                          static_cast<unsigned long long>(
                              config.maxDirInstrs));
                ++m_.dirInstrs_;
                ++m_.traceDirInstrs_;
                if (config.captureAddressTrace)
                    m_.addressTrace_.push_back(addr);
            }
            // The fused body: IU2 fetches each short instruction from
            // the trace cache's buffer array.
            for (const ShortInstr &si : step.body) {
                m_.breakdown_.dispatch += config.timing.tauD;
                ++m_.shortInstrs_;
                ++m_.traceShortInstrs_;
                executeShort(si);
            }
            if (step.guarded) {
                // The guard: pop the successor the routine left and
                // side-exit to it when it is not the recorded one.
                uint64_t next = static_cast<uint64_t>(
                    popStack(m_.breakdown_.dispatch));
                if (next != step.expect) {
                    ++m_.traceExits_;
                    m_.prevPc_ = step.dirAddrs.back();
                    return next;
                }
            }
        }
        if (!trace.loops) {
            ++m_.traceExits_;
            m_.prevPc_ = trace.steps.back().dirAddrs.back();
            return trace.exitAddr;
        }
        m_.breakdown_.dispatch += config.tier.dispatchCycles;
    }
}

RunResult
runStepped(const EncodedDir &image, const MachineConfig &config,
           const std::vector<int64_t> &input)
{
    Machine machine(image, config);
    return SteppedReference(machine).run(input);
}

} // namespace uhm
