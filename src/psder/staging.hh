/**
 * @file
 * Staging: the canonical lowering of one DIR instruction.
 *
 * Section 3.2 describes a DIR instruction as a surrogate for "a sequence
 * of procedure calls along with their arguments". Staging makes that
 * sequence explicit: for a decoded DIR instruction it yields
 *
 *   - the immediate values to push (the arguments of the calls — operand
 *     coordinates, literals, successor bit-addresses),
 *   - the semantic routine to CALL (if the opcode has one), and
 *   - how the successor DIR instruction is chosen (a known immediate
 *     address, an address left on the operand stack, or machine halt).
 *
 * The conventional interpreter performs the staging actions directly
 * after decoding each instruction; the dynamic translator lowers the
 * same staging into PSDER short-format instructions stored in the DTB.
 * Because both run the identical semantic routines over identical staged
 * values, the two execution paths are behaviorally indistinguishable —
 * the property the DTB design depends on.
 */

#ifndef UHM_PSDER_STAGING_HH
#define UHM_PSDER_STAGING_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dir/encoding.hh"
#include "psder/routines.hh"
#include "psder/short_isa.hh"

namespace uhm
{

/** How control proceeds after one DIR instruction. */
enum class NextKind : uint8_t
{
    Imm,   ///< successor bit-address known statically
    Stack, ///< successor bit-address left on the operand stack
    Halt,  ///< program ends
};

/** The canonical lowering of one DIR instruction. */
struct Staging
{
    /** Most values any DIR instruction stages (PUSHL2, BRZL/BRNZL). */
    static constexpr size_t maxPushes = 4;
    /** Longest lowering: every push, a CALL and the INTERP. */
    static constexpr size_t maxShortInstrs = maxPushes + 2;

    /** Values to push, in order: the first numPushes. */
    std::array<int64_t, maxPushes> pushes{};
    uint32_t numPushes = 0;
    /** Semantic routine id, or -1 when the opcode has none. */
    int64_t routine = -1;
    NextKind next = NextKind::Imm;
    /** Successor bit-address (next == Imm only). */
    uint64_t nextImm = 0;

    /** The staged values, in push order. */
    std::span<const int64_t>
    pushList() const
    {
        return {pushes.data(), numPushes};
    }
};

/**
 * Compute the staging of instruction @p index of @p image, already
 * decoded as @p instr. Successor and branch-target operands are resolved
 * to bit addresses in the image.
 */
Staging stageInstruction(const DirInstruction &instr,
                         const EncodedDir &image, size_t index);

/**
 * Lower a staging to PSDER short-format instructions (what the dynamic
 * translator stores in the DTB), appending them to @p out. The
 * sequence is PUSH#* [CALL] INTERP — the paper's s1 short fetches per
 * DIR instruction, at most Staging::maxShortInstrs. A Halt successor is
 * encoded as INTERP #haltAddr with the distinguished address below.
 */
void lowerStaging(const Staging &staging, std::vector<ShortInstr> &out);

/** Distinguished DIR address meaning "halt" in INTERP operands. */
constexpr uint64_t haltBitAddr = ~0ull;

} // namespace uhm

#endif // UHM_PSDER_STAGING_HH
