/**
 * @file
 * Direct interpreter for the Contour HLR.
 *
 * Section 2.2 argues that interpreting a HLR directly is unattractive
 * because "the structure of most high-level languages implicitly assumes
 * the existence of an associative memory ... it must then be simulated by
 * performing time-consuming table searches". This interpreter executes
 * the AST exactly that way — every name reference linearly searches the
 * activation-record name tables along the static chain — and counts the
 * comparisons performed, giving the reproduction a measured cost for the
 * "interpret the HLR directly" design point that the DIR levels are
 * compared against.
 */

#ifndef UHM_HLR_INTERP_HH
#define UHM_HLR_INTERP_HH

#include <cstdint>
#include <vector>

#include "hlr/ast.hh"

namespace uhm::hlr
{

/** Result of a direct HLR execution. */
struct HlrRunResult
{
    /** Values produced by 'write' statements, in order. */
    std::vector<int64_t> output;
    /** Name-table comparisons performed. */
    uint64_t nameSearchSteps = 0;
    /** Statements executed. */
    uint64_t stmts = 0;
};

/**
 * Interpret @p ast directly.
 * @param input values consumed by 'read' statements
 * @param max_steps statement budget; exceeding it is a FatalError
 *                  (guards runaway programs in tests)
 */
HlrRunResult interpretHlr(const AstProgram &ast,
                          const std::vector<int64_t> &input = {},
                          uint64_t max_steps = 100'000'000);

} // namespace uhm::hlr

#endif // UHM_HLR_INTERP_HH
