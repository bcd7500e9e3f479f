/**
 * @file
 * A single always-on event counter.
 *
 * The observability layer's unit of accounting: a plain 64-bit count
 * that components own as a member and bump on their hot paths. An
 * increment compiles to one add, with no name lookup — cheap enough to
 * leave enabled unconditionally. Counters become visible by being
 * registered into an obs::Registry under a hierarchical dotted name
 * ("dtb.hits").
 */

#ifndef UHM_OBS_COUNTER_HH
#define UHM_OBS_COUNTER_HH

#include <cstdint>

namespace uhm::obs
{

/** An owned event counter; register it to publish it. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p delta events. */
    void add(uint64_t delta = 1) { value_ += delta; }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(uint64_t delta)
    {
        value_ += delta;
        return *this;
    }

    /** Overwrite the count (state resets between runs). */
    Counter &
    operator=(uint64_t value)
    {
        value_ = value;
        return *this;
    }

    uint64_t value() const { return value_; }

    /** Counters read as plain integers in arithmetic and comparisons. */
    operator uint64_t() const { return value_; }

    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

} // namespace uhm::obs

#endif // UHM_OBS_COUNTER_HH
