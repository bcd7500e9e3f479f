/**
 * @file
 * The two-level directly addressable memory of the universal host.
 *
 * The address space is word-granular (one 64-bit word per address).
 * Addresses below the level-1 boundary belong to the small fast memory
 * (which holds the interpreter, the semantic routines, the operand stack
 * and — in the preferred organization of section 6.2 — the DTB buffer
 * array); everything above is level-2 (program image and data). Each
 * access is charged tau1 or tau2 and counted.
 */

#ifndef UHM_MEM_MEMORY_HH
#define UHM_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "mem/timing.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"

namespace uhm
{

/** Word-addressed two-level memory with access accounting. */
class MainMemory
{
  public:
    /**
     * @param level1_words size of the fast level in words
     * @param timing access times
     */
    MainMemory(uint64_t level1_words, MemTiming timing)
        : level1Words_(level1_words), timing_(timing)
    {}

    /** Read the word at @p addr, charging the appropriate level. */
    int64_t
    read(uint64_t addr)
    {
        charge(addr);
        return addr < store_.size() ? store_[addr] : 0;
    }

    /** Write the word at @p addr, charging the appropriate level. */
    void
    write(uint64_t addr, int64_t value)
    {
        charge(addr);
        if (addr >= store_.size())
            store_.resize(addr + 1, 0);
        store_[addr] = value;
    }

    /** Read without charging cycles (loader / debugger use). */
    int64_t
    peek(uint64_t addr) const
    {
        return addr < store_.size() ? store_[addr] : 0;
    }

    /** Write without charging cycles (loader / debugger use). */
    void
    poke(uint64_t addr, int64_t value)
    {
        if (addr >= store_.size())
            store_.resize(addr + 1, 0);
        store_[addr] = value;
    }

    /** True if @p addr lies in the fast level. */
    bool isLevel1(uint64_t addr) const { return addr < level1Words_; }

    /** Grow the backing store to cover [0, @p words) without charging. */
    void
    ensure(uint64_t words)
    {
        if (store_.size() < words)
            store_.resize(words, 0);
    }

    /**
     * Raw view of the backing store for the fast dispatch loops. Only
     * valid for addresses below a prior ensure() watermark, and
     * invalidated by any poke/write that grows the store.
     */
    int64_t *raw() { return store_.data(); }

    /**
     * Charge a batch of accesses the fast dispatch path performed with
     * peek/poke and counted locally: @p level1 tau1 accesses and
     * @p level2 tau2 accesses. Cycle and access counters end up exactly
     * as if each access had gone through read/write individually.
     */
    void
    chargeBatch(uint64_t level1, uint64_t level2)
    {
        cycles_ += level1 * timing_.tau1 + level2 * timing_.tau2;
        level1Accesses_ += level1;
        level2Accesses_ += level2;
    }

    /** Accumulated access cycles. */
    uint64_t cycles() const { return cycles_; }

    /** Timing parameters in force. */
    const MemTiming &timing() const { return timing_; }

    /** Size of the fast level in words. */
    uint64_t level1Words() const { return level1Words_; }

    /** Publish "<prefix>.level1_accesses" / "<prefix>.level2_accesses". */
    void
    registerCounters(obs::Registry &registry,
                     const std::string &prefix) const
    {
        registry.add(prefix, "level1_accesses", level1Accesses_);
        registry.add(prefix, "level2_accesses", level2Accesses_);
    }

    /** Reset cycle and access counters (not contents). */
    void
    resetStats()
    {
        cycles_ = 0;
        level1Accesses_.reset();
        level2Accesses_.reset();
    }

  private:
    void
    charge(uint64_t addr)
    {
        if (addr < level1Words_) {
            cycles_ += timing_.tau1;
            ++level1Accesses_;
        } else {
            cycles_ += timing_.tau2;
            ++level2Accesses_;
        }
    }

    std::vector<int64_t> store_;
    uint64_t level1Words_;
    MemTiming timing_;
    uint64_t cycles_ = 0;
    obs::Counter level1Accesses_;
    obs::Counter level2Accesses_;
};

} // namespace uhm

#endif // UHM_MEM_MEMORY_HH
