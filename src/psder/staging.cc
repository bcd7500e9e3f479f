#include "psder/staging.hh"

#include <algorithm>

#include "support/logging.hh"

namespace uhm
{

namespace
{

/** Stage @p values as @p st's pushes. */
void
setPushes(Staging &st, std::initializer_list<int64_t> values)
{
    std::copy(values.begin(), values.end(), st.pushes.begin());
    st.numPushes = static_cast<uint32_t>(values.size());
}

} // anonymous namespace

Staging
stageInstruction(const DirInstruction &instr, const EncodedDir &image,
                 size_t index)
{
    Staging st;
    st.routine = RoutineLibrary::routineId(instr.op);

    // Sequential successor (valid whenever the opcode falls through).
    auto fallthru = [&]() -> uint64_t {
        uhm_assert(index + 1 < image.numInstrs(),
                   "instruction %zu falls off the end", index);
        return image.bitAddrOf(index + 1);
    };
    auto target_addr = [&](int64_t target_index) -> uint64_t {
        return image.bitAddrOf(static_cast<size_t>(target_index));
    };

    switch (instr.op) {
      case Op::PUSHC:
        // The literal itself is staged; no semantic routine.
        setPushes(st, {instr.operands[0]});
        st.routine = -1;
        st.nextImm = fallthru();
        return st;

      case Op::PUSHL:
      case Op::STOREL:
      case Op::ADDR:
        setPushes(st, {instr.operands[0], instr.operands[1]});
        st.nextImm = fallthru();
        return st;

      case Op::ENTER:
      case Op::SETL:
      case Op::INCL:
        setPushes(st, {instr.operands[0], instr.operands[1],
                     instr.operands[2]});
        st.nextImm = fallthru();
        return st;

      case Op::WRITEL:
        setPushes(st, {instr.operands[0], instr.operands[1]});
        st.nextImm = fallthru();
        return st;

      case Op::PUSHL2:
        setPushes(st, {instr.operands[0], instr.operands[1],
                     instr.operands[2], instr.operands[3]});
        st.nextImm = fallthru();
        return st;

      case Op::BRZL:
      case Op::BRNZL:
        setPushes(st, {
            instr.operands[0], instr.operands[1],
            static_cast<int64_t>(target_addr(instr.operands[2])),
            static_cast<int64_t>(fallthru()),
        });
        st.next = NextKind::Stack;
        return st;

      case Op::SEMWORK:
        setPushes(st, {instr.operands[0]});
        st.nextImm = fallthru();
        return st;

      case Op::JMP:
        st.routine = -1;
        st.nextImm = target_addr(instr.operands[0]);
        return st;

      case Op::JZ:
      case Op::JNZ:
        setPushes(st, {
            static_cast<int64_t>(target_addr(instr.operands[0])),
            static_cast<int64_t>(fallthru()),
        });
        st.next = NextKind::Stack;
        return st;

      case Op::CALLP: {
        const Contour &callee =
            image.program().procContour(
                static_cast<size_t>(instr.operands[0]));
        setPushes(st, {
            static_cast<int64_t>(image.bitAddrOf(callee.entry)),
            static_cast<int64_t>(fallthru()),
        });
        st.next = NextKind::Stack;
        return st;
      }

      case Op::RET:
        setPushes(st, {instr.operands[0], instr.operands[1]});
        st.next = NextKind::Stack;
        return st;

      case Op::HALT:
        st.routine = -1;
        st.next = NextKind::Halt;
        return st;

      case Op::NOP:
        st.routine = -1;
        st.nextImm = fallthru();
        return st;

      default:
        // All remaining opcodes: pure semantic routine, sequential
        // successor, no staged values.
        st.nextImm = fallthru();
        return st;
    }
}

void
lowerStaging(const Staging &staging, std::vector<ShortInstr> &out)
{
    for (int64_t v : staging.pushList())
        out.push_back({SOp::PUSH, SMode::Imm, v});
    if (staging.routine >= 0)
        out.push_back({SOp::CALL, SMode::Imm, staging.routine});
    switch (staging.next) {
      case NextKind::Imm:
        out.push_back({SOp::INTERP, SMode::Imm,
                       static_cast<int64_t>(staging.nextImm)});
        break;
      case NextKind::Stack:
        out.push_back({SOp::INTERP, SMode::Stack, 0});
        break;
      case NextKind::Halt:
        out.push_back({SOp::INTERP, SMode::Imm,
                       static_cast<int64_t>(haltBitAddr)});
        break;
    }
}

} // namespace uhm
