/**
 * @file
 * A generic set-associative cache model.
 *
 * Used as the instruction cache of the T3 baseline machine ("a UHM
 * equipped with a cache", section 7): a transparent buffer over the
 * level-2 memory holding recently fetched DIR image lines. Tag-only —
 * the model tracks hits and misses; the machine charges tauD on hits and
 * tau2 on misses exactly as the paper's T3 expression does.
 */

#ifndef UHM_MEM_CACHE_HH
#define UHM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/replacement.hh"
#include "obs/counter.hh"
#include "obs/registry.hh"
#include "support/rng.hh"

namespace uhm
{

/** Cache geometry and policy. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    uint64_t capacityBytes = 4096;
    /** Line size in bytes. */
    uint64_t lineBytes = 8;
    /** Ways per set; 0 means fully associative. */
    unsigned assoc = 4;
    ReplPolicy policy = ReplPolicy::LRU;
    /** Seed for the Random policy. */
    uint64_t seed = 1;
};

/** Tag-only set-associative cache with pluggable replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Access the byte at @p byte_addr; install its line on a miss.
     * @p hint names a line to try before the set is scanned: a caller
     * that probes the same byte again keeps the line index this call
     * leaves there (the line that now holds the byte), so a repeat hit
     * is one compare. Any index below numSets() * assoc() is a valid
     * hint, because a line matches by its whole line address; a stale
     * hint only costs the scan. Counting, stamps and victims are those
     * of the plain scan.
     * @return true on hit
     */
    bool
    access(uint64_t byte_addr, uint32_t &hint)
    {
        uint64_t line_addr = lineOf(byte_addr);
        if (lines_[hint].addr == line_addr)
            return hitLine(hint);
        uint64_t base = setOf(line_addr) * assoc_;
        for (unsigned way = 0; way < assoc_; ++way) {
            if (lines_[base + way].addr == line_addr) {
                hint = static_cast<uint32_t>(base + way);
                return hitLine(hint);
            }
        }
        hint = fill(base, line_addr);
        return false;
    }

    /** access() without a remembered line. */
    bool
    access(uint64_t byte_addr)
    {
        uint32_t hint = 0;
        return access(byte_addr, hint);
    }

    /** Invalidate everything. */
    void flush();

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }

    /** Hit ratio so far (1.0 when no accesses yet). */
    double
    hitRatio() const
    {
        uint64_t total = hits_.value() + misses_.value();
        return total == 0 ? 1.0 :
            static_cast<double>(hits_.value()) /
            static_cast<double>(total);
    }

    /** Publish "<prefix>.hits" / "<prefix>.misses" into @p registry. */
    void
    registerCounters(obs::Registry &registry,
                     const std::string &prefix) const
    {
        registry.add(prefix, "hits", hits_);
        registry.add(prefix, "misses", misses_);
    }

    /** Number of sets. */
    uint64_t numSets() const { return numSets_; }

    /** Ways per set. */
    unsigned assoc() const { return assoc_; }

    const CacheConfig &config() const { return config_; }

    /** Reset hit/miss counters (contents retained). */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

  private:
    /** Line::addr of an invalid line. Only a byte address of 2^64-1
     *  with 1-byte lines would reach it; fetches probe 8-byte-aligned
     *  image words. */
    static constexpr uint64_t invalidAddr = ~0ull;

    struct Line
    {
        /** Line address (byte address / lineBytes) held, or
         *  invalidAddr. The whole address, not just the tag above the
         *  set bits, so a hint from any set never matches falsely. */
        uint64_t addr = invalidAddr;
        /** Replacement use stamp (mem/replacement.hh). */
        uint64_t stamp = 0;
    };

    uint64_t
    lineOf(uint64_t byte_addr) const
    {
        // The Cached organization probes once per fetched image word;
        // power-of-two geometries (the default) skip the divides.
        return pow2_ ? byte_addr >> lineShift_ :
            byte_addr / config_.lineBytes;
    }

    uint64_t
    setOf(uint64_t line_addr) const
    {
        return pow2_ ? line_addr & (numSets_ - 1) : line_addr % numSets_;
    }

    bool
    hitLine(uint32_t line)
    {
        repl_.touch(lines_[line].stamp);
        ++hits_;
        return true;
    }

    /** The miss path: install @p line_addr in the set whose first line
     *  is @p base, count the miss, and return the line index. */
    uint32_t fill(uint64_t base, uint64_t line_addr);

    CacheConfig config_;
    uint64_t numSets_;
    unsigned assoc_;
    /** lineBytes and numSets_ are powers of two: access() shifts by
     *  lineShift_ and masks instead of dividing. */
    bool pow2_;
    unsigned lineShift_;
    Rng rng_;
    UseClock repl_;
    /** lines_[set * assoc_ + way]. */
    std::vector<Line> lines_;
    obs::Counter hits_;
    obs::Counter misses_;
};

} // namespace uhm

#endif // UHM_MEM_CACHE_HH
