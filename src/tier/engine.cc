#include "tier/engine.hh"

#include <algorithm>

#include "dir/fusion.hh"
#include "psder/staging.hh"
#include "support/logging.hh"

namespace uhm::tier
{

namespace
{

/** Lower @p staging to the trace-body form: pushes + CALL, no INTERP. */
std::vector<ShortInstr>
lowerBody(const Staging &staging)
{
    std::vector<ShortInstr> seq = lowerStaging(staging);
    uhm_assert(!seq.empty() && seq.back().op == SOp::INTERP,
               "lowered staging did not end with INTERP");
    seq.pop_back();
    return seq;
}

} // anonymous namespace

TierEngine::TierEngine(const EncodedDir &image, Dtb &dtb,
                       const TierConfig &config,
                       const TraceCacheConfig &cache_config)
    : image_(&image), dtb_(&dtb), config_(config), cache_(cache_config)
{
    uhm_assert(config_.traceCap >= 2, "trace cap below two steps");
}

uint32_t
TierEngine::attemptsOf(uint64_t head) const
{
    auto it = attempts_.find(head);
    return it == attempts_.end() ? 0 : it->second;
}

bool
TierEngine::wantsRecording(const EntryMeta &meta, uint64_t head) const
{
    return !recording_ && !meta.anchorsTrace &&
        meta.backedgeCount >= config_.hotThreshold &&
        attemptsOf(head) < config_.maxRecordAttempts;
}

void
TierEngine::beginRecording(uint64_t head)
{
    uhm_assert(!recording_, "recording already active");
    recording_ = true;
    head_ = head;
    pcs_.assign(1, head);
    succs_.assign(1, 0);
}

TierEngine::RecordOutcome
TierEngine::recordStep(uint64_t pc)
{
    uhm_assert(recording_, "recordStep without an active recording");
    // pc is the successor the previous step actually took.
    succs_.back() = pc;
    if (pc == head_)
        return closeRecording(true, pc);
    if (pcs_.size() >= config_.traceCap)
        return closeRecording(false, pc);
    // Revisiting a trace-interior address means an inner loop; tracing
    // through it would unroll it into the body. Abort and blacklist.
    if (std::find(pcs_.begin(), pcs_.end(), pc) != pcs_.end())
        return abortRecording();
    size_t idx = image_->indexOfBitAddr(pc);
    if (image_->program().instrs[idx].op == Op::HALT)
        return abortRecording();
    pcs_.push_back(pc);
    succs_.push_back(0);
    return {RecordStatus::Recording, {}};
}

TierEngine::RecordOutcome
TierEngine::abortRecording()
{
    ++aborted_;
    ++attempts_[head_];
    recording_ = false;
    pcs_.clear();
    succs_.clear();
    return {RecordStatus::Aborted, {}};
}

TierEngine::RecordOutcome
TierEngine::closeRecording(bool loops, uint64_t exit_addr)
{
    CompileResult cr = compileAndInstall(loops, exit_addr);
    recording_ = false;
    pcs_.clear();
    succs_.clear();
    if (cr.installed)
        attempts_.erase(cr.head);
    else
        ++attempts_[cr.head];
    return {RecordStatus::Closed, cr};
}

TierEngine::CompileResult
TierEngine::compileAndInstall(bool loops, uint64_t exit_addr)
{
    ++recorded_;
    const DirProgram &prog = image_->program();
    size_t n = pcs_.size();

    Trace trace;
    trace.head = head_;
    trace.loops = loops;
    trace.exitAddr = exit_addr;

    // Program index of each recorded step.
    std::vector<size_t> idx(n);
    for (size_t k = 0; k < n; ++k)
        idx[k] = image_->indexOfBitAddr(pcs_[k]);

    size_t t = 0;
    while (t < n) {
        size_t i = idx[t];
        // Length of the run of program-consecutive recorded steps
        // starting here — the window fusion may cover. (A recorded
        // successor is always the next recorded pc, so consecutive
        // indices imply taken fall-through.)
        size_t run = 1;
        while (t + run < n && idx[t + run] == i + run && run < 4)
            ++run;

        DirInstruction fused{};
        size_t flen = 0;
        if (run >= 2)
            std::tie(fused, flen) = matchFusePattern(prog, i, run);

        TraceStep step;
        Staging st;
        size_t covered;
        if (flen >= 2) {
            st = stageInstruction(fused, *image_, i);
            if (fused.op == Op::BRZL || fused.op == Op::BRNZL) {
                // stageInstruction computed the fall-through of index i;
                // the fused group occupies [i, i + flen), so the branch
                // must push the address after the whole group.
                uhm_assert(i + flen < image_->numInstrs(),
                           "fused branch group at the image end");
                st.pushes[3] = static_cast<int64_t>(
                    image_->bitAddrOf(i + flen));
            }
            covered = flen;
            ++trace.fusedGroups;
            ++fusedGroups_;
        } else {
            st = stageInstruction(prog.instrs[i], *image_, i);
            covered = 1;
        }
        uhm_assert(st.next != NextKind::Halt,
                   "HALT slipped into a recording");

        step.body = lowerBody(st);
        step.guarded = st.next == NextKind::Stack;
        uint64_t succ = succs_[t + covered - 1];
        if (step.guarded) {
            step.expect = succ;
        } else {
            step.staticNext = succ;
            uhm_assert(covered > 1 || st.nextImm == succ,
                       "static successor disagrees with the recording");
        }
        for (size_t k = 0; k < covered; ++k)
            step.dirAddrs.push_back(pcs_[t + k]);

        trace.shortCount += step.body.size();
        trace.dirCount += step.dirAddrs.size();
        trace.steps.push_back(std::move(step));
        t += covered;
    }

    CompileResult cr;
    cr.head = head_;
    cr.compiledShorts = trace.shortCount;
    cr.fusedGroups = trace.fusedGroups;
    cr.steps = trace.dirCount;
    compiledShorts_ += trace.shortCount;

    // Anchor first: a head whose DTB entry was evicted mid-recording
    // cannot hold a trace (nothing would invalidate it on replacement).
    if (!dtb_->markTraceAnchor(head_))
        return cr;
    TraceCache::InsertOutcome ins = cache_.insert(std::move(trace));
    if (ins.evicted && ins.victimHead != head_) {
        dtb_->clearTraceAnchor(ins.victimHead);
        cr.evictedTrace = true;
        cr.evictedHead = ins.victimHead;
    }
    if (!ins.retained) {
        dtb_->clearTraceAnchor(head_);
        return cr;
    }
    cr.installed = true;
    ++installed_;
    return cr;
}

TierEngine::InstallResult
TierEngine::installTranslation(uint64_t dir_addr,
                               const std::vector<ShortInstr> &code,
                               uint64_t now)
{
    InstallResult r;
    r.dtb = dtb_->insert(dir_addr, code, now);
    // Only a victim of our own address space can anchor a trace in
    // *this* engine's cache. A cross-tenant victim (shared-DTB mode)
    // may carry the same tag as one of our live, still-anchored traces
    // — invalidating by tag alone would destroy it.
    if (r.dtb.evicted && r.dtb.victimAsid == dtb_->asid())
        r.invalidatedTrace = cache_.invalidate(r.dtb.victimTag);
    return r;
}

bool
TierEngine::invalidateTrace(uint64_t head)
{
    return cache_.invalidate(head);
}

const Trace *
TierEngine::lookupTrace(uint64_t head)
{
    const Trace *trace = cache_.lookup(head);
    if (!trace)
        dtb_->clearTraceAnchor(head);
    return trace;
}

void
TierEngine::registerCounters(obs::Registry &registry,
                             const std::string &prefix) const
{
    registry.add(obs::joinName(prefix, "traces_recorded"), recorded_);
    registry.add(obs::joinName(prefix, "traces_installed"), installed_);
    registry.add(obs::joinName(prefix, "traces_aborted"), aborted_);
    registry.add(obs::joinName(prefix, "compiled_short_instrs"),
                 compiledShorts_);
    registry.add(obs::joinName(prefix, "fused_groups"), fusedGroups_);
    cache_.registerCounters(registry, obs::joinName(prefix, "cache"));
}

void
TierEngine::reset()
{
    cache_.invalidateAll();
    recording_ = false;
    head_ = 0;
    pcs_.clear();
    succs_.clear();
    attempts_.clear();
    resetStats();
}

void
TierEngine::resetStats()
{
    cache_.resetStats();
    recorded_.reset();
    installed_.reset();
    aborted_.reset();
    compiledShorts_.reset();
    fusedGroups_.reset();
}

} // namespace uhm::tier
