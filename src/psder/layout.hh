/**
 * @file
 * The memory layout shared by the semantic routines and the machine.
 *
 * Word addresses. The level-1 region holds the display array and the
 * operand stack (and notionally the interpreter, the semantic routines
 * and the DTB buffer array, whose occupancy is accounted separately);
 * the level-2 region holds the program's data: globals, then the frame
 * stack.
 */

#ifndef UHM_PSDER_LAYOUT_HH
#define UHM_PSDER_LAYOUT_HH

#include <compare>
#include <cstdint>

namespace uhm
{

/** Memory-map parameters of a machine instance. */
struct MachineLayout
{
    /** Base of the display array D[0..maxDepth] (level 1). */
    uint64_t dispBase = 16;
    /** Deepest supported contour depth. */
    uint64_t maxDepth = 24;
    /** Base of the operand stack (level 1). */
    uint64_t stackBase = 48;
    /** Operand stack capacity in words. */
    uint64_t stackWords = 2048;
    /** Size of the level-1 memory in words; level 2 starts here. */
    uint64_t level1Words = 4096;
    /** Return-address stack capacity (hardware stack in IU2). */
    uint64_t rasDepth = 1 << 16;

    /** Base of the globals region (start of level 2). */
    uint64_t globalsBase() const { return level1Words; }

    /** Memberwise, so a field added later is part of every comparison
     *  (FlatRoutines::forLayout keys its memo on the whole layout). */
    auto operator<=>(const MachineLayout &) const = default;
};

} // namespace uhm

#endif // UHM_PSDER_LAYOUT_HH
