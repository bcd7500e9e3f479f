#include "uhm/run_image.hh"

#include <map>
#include <mutex>

#include "psder/staging.hh"
#include "support/logging.hh"

namespace uhm
{

namespace
{

bool
isBranch(MOp op)
{
    return op == MOp::BR || op == MOp::BRZ || op == MOp::BRNZ ||
        op == MOp::BRNEG;
}

/** True when ops[j..] starts with exactly @p pat. */
bool
matchOps(const std::vector<MicroOp> &ops, size_t j,
         std::initializer_list<MOp> pat)
{
    if (j + pat.size() > ops.size())
        return false;
    size_t k = j;
    for (MOp m : pat)
        if (ops[k++].op != m)
            return false;
    return true;
}

/** Fused opcode for a SPOP/SPOP/<op>/SPUSH/DONE body, 0 if none. */
uint32_t
binFusedOp(MOp op)
{
    using F = FlatRoutines;
    switch (op) {
      case MOp::ADD:   return F::F_BIN_ADD;
      case MOp::SUB:   return F::F_BIN_SUB;
      case MOp::MUL:   return F::F_BIN_MUL;
      case MOp::DIV:   return F::F_BIN_DIV;
      case MOp::MOD:   return F::F_BIN_MOD;
      case MOp::AND:   return F::F_BIN_AND;
      case MOp::OR:    return F::F_BIN_OR;
      case MOp::XOR:   return F::F_BIN_XOR;
      case MOp::SHL:   return F::F_BIN_SHL;
      case MOp::SHR:   return F::F_BIN_SHR;
      case MOp::CMPEQ: return F::F_BIN_CMPEQ;
      case MOp::CMPNE: return F::F_BIN_CMPNE;
      case MOp::CMPLT: return F::F_BIN_CMPLT;
      case MOp::CMPLE: return F::F_BIN_CMPLE;
      case MOp::CMPGT: return F::F_BIN_CMPGT;
      case MOp::CMPGE: return F::F_BIN_CMPGE;
      default:         return 0;
    }
}

/**
 * Try to install a fused superop for the constituents starting at
 * routine-local index @p j. Rewrites only the op byte of the first
 * constituent's emitted word; positions and branch targets are
 * untouched. @return the constituent count (0 = no fusion).
 */
size_t
fuseAt(const std::vector<MicroOp> &ops, size_t j,
       std::vector<uint32_t> &code, size_t base)
{
    using F = FlatRoutines;
    auto install = [&](uint32_t fop, size_t len) {
        code[base + j] = (code[base + j] & ~0xffu) | fop;
        return len;
    };

    // Longest shapes first; every shorter shape is also a prefix of a
    // longer one only where the longer check has already failed.
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP, MOp::SPOP,
                          MOp::LOAD, MOp::ADD, MOp::LOAD, MOp::LOAD,
                          MOp::ADD, MOp::LOAD, MOp::SPUSH, MOp::SPUSH,
                          MOp::DONE}))
        return install(F::F_PUSHL2, 13);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SUB, MOp::ADDI,
                          MOp::LOAD, MOp::STORE, MOp::RASPOP,
                          MOp::SPUSH, MOp::DONE}))
        return install(F::F_RET, 9);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP, MOp::LOAD,
                          MOp::ADD, MOp::LOAD, MOp::ADD, MOp::STORE,
                          MOp::DONE}))
        return install(F::F_INCL, 9);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP, MOp::LOAD,
                          MOp::STORE, MOp::ADDI, MOp::STORE, MOp::ADD,
                          MOp::ADDI}))
        return install(F::F_ENTER_PRE, 9);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::LOAD, MOp::ADD,
                          MOp::LOAD, MOp::SPUSH, MOp::DONE}))
        return install(F::F_PUSHL, 7);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP, MOp::LOAD,
                          MOp::ADD, MOp::STORE, MOp::DONE}))
        return install(F::F_STORE3, 7);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::LOAD, MOp::ADD,
                          MOp::LOAD, MOp::OUTP, MOp::DONE}))
        return install(F::F_WRITEL, 7);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP, MOp::SPOP,
                          MOp::LOAD, MOp::ADD, MOp::LOAD}))
        return install(F::F_LEA4, 7);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::LOAD, MOp::ADD,
                          MOp::SPUSH, MOp::DONE}))
        return install(F::F_ADDR, 6);
    if (matchOps(ops, j, {MOp::BRZ, MOp::ADDI, MOp::SPOP, MOp::ADD,
                          MOp::STORE, MOp::BR}))
        return install(F::F_ENTER_LOOP, 6);
    if (j + 5 <= ops.size() && ops[j].op == MOp::SPOP &&
        ops[j + 1].op == MOp::SPOP && ops[j + 3].op == MOp::SPUSH &&
        ops[j + 4].op == MOp::DONE) {
        if (uint32_t fop = binFusedOp(ops[j + 2].op))
            return install(fop, 5);
    }
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPUSH, MOp::SPUSH,
                          MOp::DONE}))
        return install(F::F_SWAP, 5);
    if (matchOps(ops, j, {MOp::BRZ, MOp::BRNEG, MOp::ADDI, MOp::BR})) {
        // The closed-form spin needs the exact counted-loop shape:
        // all four test/decrement the same register by one, and the
        // BR loops straight back to the BRZ.
        const MicroOp &bz = ops[j];
        const MicroOp &bn = ops[j + 1];
        const MicroOp &ai = ops[j + 2];
        const MicroOp &br = ops[j + 3];
        if (bz.srcA == bn.srcA && ai.dst == bz.srcA &&
            ai.srcA == bz.srcA && ai.imm == -1 &&
            static_cast<int64_t>(j + 3) + 1 + br.imm ==
                static_cast<int64_t>(j))
            return install(F::F_SEMWORK_LOOP, 4);
    }
    if (matchOps(ops, j, {MOp::SPOP, MOp::LOAD, MOp::SPUSH, MOp::DONE}))
        return install(F::F_LOADI, 4);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::STORE, MOp::DONE}))
        return install(F::F_STOREI, 4);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPUSH, MOp::SPUSH, MOp::DONE}))
        return install(F::F_DUP, 4);
    if (matchOps(ops, j, {MOp::SPOP, MOp::NEG, MOp::SPUSH, MOp::DONE}))
        return install(F::F_NEG1, 4);
    if (matchOps(ops, j, {MOp::SPOP, MOp::NOT, MOp::SPUSH, MOp::DONE}))
        return install(F::F_NOT1, 4);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP, MOp::SPOP}))
        return install(F::F_SPOP3, 3);
    if (matchOps(ops, j, {MOp::SPOP, MOp::RASPUSH, MOp::DONE}))
        return install(F::F_CALLP, 3);
    if (matchOps(ops, j, {MOp::INP, MOp::SPUSH, MOp::DONE}))
        return install(F::F_READ, 3);
    if (matchOps(ops, j, {MOp::SPOP, MOp::OUTP, MOp::DONE}))
        return install(F::F_WRITE, 3);
    if (matchOps(ops, j, {MOp::SPUSH, MOp::BR}))
        return install(F::F_PUSH_BR, 2);
    if (matchOps(ops, j, {MOp::SPUSH, MOp::DONE}))
        return install(F::F_PUSH_DONE, 2);
    if (matchOps(ops, j, {MOp::SPOP, MOp::DONE}))
        return install(F::F_POP_DONE, 2);
    if (matchOps(ops, j, {MOp::SPOP, MOp::SPOP}))
        return install(F::F_SPOP2, 2);
    return 0;
}

} // namespace

FlatRoutines
FlatRoutines::build(const RoutineLibrary &lib, size_t count)
{
    FlatRoutines flat;
    flat.entry.assign(count, -1);
    for (size_t id = 0; id < count; ++id) {
        const MicroRoutine &r = lib.byId(static_cast<int64_t>(id));
        if (r.ops.empty())
            continue;
        size_t base = flat.code.size();
        size_t n = r.ops.size();
        flat.entry[id] = static_cast<int32_t>(base);
        for (size_t j = 0; j < n; ++j) {
            const MicroOp &op = r.ops[j];
            flat.code.push_back(
                static_cast<uint32_t>(op.op) |
                static_cast<uint32_t>(op.dst) << 8 |
                static_cast<uint32_t>(op.srcA) << 16 |
                static_cast<uint32_t>(op.srcB) << 24);
            if (isBranch(op.op)) {
                // Relative distance from the following instruction →
                // absolute stream index. A target outside the routine
                // is redirected to the sentinel, which panics: the
                // routine fell off its end.
                int64_t target =
                    static_cast<int64_t>(j) + 1 + op.imm;
                if (target < 0 || target > static_cast<int64_t>(n))
                    target = static_cast<int64_t>(n);
                flat.imm.push_back(static_cast<int64_t>(base) + target);
            } else {
                flat.imm.push_back(op.imm);
            }
        }
        flat.code.push_back(sentinelOp);
        flat.imm.push_back(0);

        // Superop peephole: greedily fuse known constituent runs into
        // single-dispatch handlers. Positions are preserved, so this
        // pass never touches the imm stream.
        size_t j = 0;
        while (j < n) {
            size_t len = fuseAt(r.ops, j, flat.code, base);
            j += len ? len : 1;
        }
    }
    return flat;
}

std::shared_ptr<const FlatRoutines>
FlatRoutines::forLayout(const MachineLayout &layout)
{
    static std::mutex mutex;
    static std::map<MachineLayout, std::shared_ptr<const FlatRoutines>>
        memo;
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<const FlatRoutines> &flat = memo[layout];
    if (!flat) {
        flat = std::make_shared<const FlatRoutines>(
            build(RoutineLibrary(layout), numOps));
    }
    return flat;
}

bool
lowerFastSeq(const std::vector<ShortInstr> &code,
             const FlatRoutines &flat, uint64_t tau_d, uint64_t tau1,
             FastSeq &out)
{
    out.fastable = false;
    out.stackNext = false;
    out.routineEntry = -1;
    out.nextImm = 0;
    out.icTag = ~0ull;
    out.mainIcTag = ~0ull;
    out.numPushes = 0;

    // Canonical translation shape: PUSH#* [CALL] INTERP.
    size_t i = 0;
    while (i < code.size() && code[i].op == SOp::PUSH &&
           code[i].mode == SMode::Imm) {
        if (out.numPushes == FastSeq::maxPushes)
            return false;
        out.pushes[out.numPushes++] = code[i].operand;
        ++i;
    }
    if (i < code.size() && code[i].op == SOp::CALL) {
        int64_t id = code[i].operand;
        if (id < 0 || static_cast<size_t>(id) >= flat.entry.size())
            return false;
        out.routineEntry = flat.entry[static_cast<size_t>(id)];
        ++i;
    }
    if (i + 1 != code.size() || code[i].op != SOp::INTERP)
        return false;
    if (code[i].mode == SMode::Stack)
        out.stackNext = true;
    else if (code[i].mode == SMode::Imm)
        out.nextImm = static_cast<uint64_t>(code[i].operand);
    else
        return false;

    out.shortCount = static_cast<uint32_t>(code.size());
    out.dispatchAdd = tau_d * out.shortCount +
        (out.stackNext ? tau1 : 0);
    out.stageAdd = static_cast<uint64_t>(out.numPushes) * tau1;
    out.level1Add = out.numPushes +
        (out.stackNext ? 1u : 0u);
    out.fastable = true;
    return true;
}

void
lowerFastTrace(const tier::Trace &trace, const FlatRoutines &flat,
               uint64_t tau_d, uint64_t tau1, FastTrace &out)
{
    uhm_assert(!trace.steps.empty(), "empty trace");
    out.steps.clear();
    out.loops = trace.loops;
    out.exitAddr = trace.exitAddr;

    out.steps.reserve(trace.steps.size());
    for (const tier::TraceStep &step : trace.steps) {
        uhm_assert(!step.dirAddrs.empty(), "trace step covers no DIR");
        FastTraceStep fs;
        fs.src = &step;
        fs.nDir = static_cast<uint32_t>(step.dirAddrs.size());
        fs.nBody = static_cast<uint32_t>(step.body.size());
        fs.guarded = step.guarded;
        fs.expect = step.expect;
        fs.lastAddr = step.dirAddrs.back();
        for (const ShortInstr &si : step.body) {
            if (si.op == SOp::PUSH) {
                // Trace bodies are PUSH#/CALL only by construction
                // (tier::TierEngine lowers stagings without INTERP).
                uhm_assert(si.mode == SMode::Imm,
                           "non-immediate PUSH in a trace body");
                ++fs.nPushes;
                fs.items.push_back({-1, si.operand});
                continue;
            }
            uhm_assert(si.op == SOp::CALL && si.operand >= 0 &&
                       static_cast<size_t>(si.operand) <
                           flat.entry.size(),
                       "trace body is not PUSH#/CALL");
            int32_t entry = flat.entry[static_cast<size_t>(si.operand)];
            // Empty routines still count as executed short instructions
            // (nBody covers them) but emit no item.
            if (entry >= 0)
                fs.items.push_back({entry, 0});
        }
        fs.dispatchAdd =
            tau_d * fs.nBody + (fs.guarded ? tau1 : 0);
        fs.stageAdd = static_cast<uint64_t>(fs.nPushes) * tau1;
        fs.level1Add = fs.nPushes + (fs.guarded ? 1u : 0u);
        out.steps.push_back(std::move(fs));
    }
    out.lastAddr = out.steps.back().lastAddr;
}

} // namespace uhm
