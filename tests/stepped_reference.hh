/**
 * @file
 * The stepped reference engine: the tests' oracle for the machine's run
 * loops.
 *
 * Machine runs every DIR instruction in one of two loop families
 * (runDtbFast, runConventionalFast), which batch charges in registers
 * and, in their Events instantiation, stamp each event with the running
 * cycle count plus the current instruction's charges so far.
 * SteppedReference executes the same program one instruction at a
 * time instead: every charge is applied to the machine's breakdown and
 * counters as it accrues, and every event is stamped with the
 * breakdown's total at that moment. Tier-2 traces run one short
 * instruction at a time too (runTrace). It shares only the cold work
 * with the machine (Machine::missFlow and the recorder hook), so a
 * batching or stamping mistake in a loop shows up as a difference
 * between the two runs. dispatch_test and fuzz_test demand identity on
 * every simulated observable, and on the event stream when events are
 * on.
 *
 * Translations are PUSH# [CALL] INTERP (lowerStaging); the reference
 * asserts that shape instead of executing POP or the direct/indirect
 * PUSH flavors, which no translation contains.
 */

#ifndef UHM_TESTS_STEPPED_REFERENCE_HH
#define UHM_TESTS_STEPPED_REFERENCE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "uhm/machine.hh"

namespace uhm
{

/** Steps a Machine's state one DIR instruction at a time. */
class SteppedReference
{
  public:
    explicit SteppedReference(Machine &machine) : m_(machine) {}

    /** Machine::run, stepped. */
    RunResult run(const std::vector<int64_t> &input = {});

    /** Machine::runSlice, stepped: the same soft cycle bound. */
    uint64_t runSlice(uint64_t max_cycles);

    /** What @p machine's event ring holds now, oldest first (a run
     *  that threw never reaches finishRun). */
    static std::vector<obs::Event> events(const Machine &machine);

  private:
    /** Take a sample when one is due; called once per instruction. The
     *  interval check comes first, so a run without sampling never
     *  computes the cycle total. */
    void maybeSample();

    // ---- operand stack (resident in level-1 memory) ----------------------
    void pushStack(int64_t value, uint64_t &bucket);
    int64_t popStack(uint64_t &bucket);

    /** Run the semantic routine at flat entry @p entry to DONE,
     *  applying its charges when it retires. */
    void callRoutine(size_t entry);

    /** Charge a fetch of @p bits at @p bit_addr through the icache. */
    void chargeFetchCached(uint64_t bit_addr, uint64_t bits);

    /** Perform the staging actions and semantics of one instruction. */
    void executeStaged(const Staging &staging);

    /** Execute one PUSH# or CALL. */
    void executeShort(const ShortInstr &si);

    /** Execute one PSDER short sequence; returns the successor. */
    uint64_t executeShortSequence(std::span<const ShortInstr> code,
                                  uint64_t fetch_cost);

    /** One Conventional/Cached instruction: fetch, decode, staging. */
    void convStep();

    /** One Dtb/Dtb2/Tiered instruction, or one Tiered trace dispatch. */
    void dtbStep();

    /** Machine::runTrace, stepped: run the trace at trace-cache entry
     *  @p idx to its exit and return the exit address. */
    uint64_t runTrace(uint32_t idx);

    Machine &m_;
};

/** A fresh machine over @p image and @p config, run stepped. */
RunResult runStepped(const EncodedDir &image, const MachineConfig &config,
                     const std::vector<int64_t> &input = {});

} // namespace uhm

#endif // UHM_TESTS_STEPPED_REFERENCE_HH
