/**
 * @file
 * The dynamic translator (section 4, Figure 4).
 *
 * "The dynamic translator fetches the DIR instruction, decodes and
 * parses it, generates the PSDER translation which it then stores in the
 * DTB at the selected location. ... since the mapping from DIR to PSDER
 * is almost one-to-one, the added complexity is not significant and is
 * easily masked by the number of times that the task of decoding and
 * parsing is avoided."
 *
 * The translator's binding persists over many executions of an
 * instruction — between the compiler's (whole run) and the
 * interpreter's (one execution) on the paper's persistence spectrum.
 */

#ifndef UHM_CORE_TRANSLATOR_HH
#define UHM_CORE_TRANSLATOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dir/encoding.hh"
#include "psder/staging.hh"

namespace uhm
{

/** One translated DIR instruction. */
struct Translation
{
    /** The PSDER short-format sequence, held by the translator. */
    std::span<const ShortInstr> code;
    /** Decode work performed (feeds the paper's d on the miss path). */
    DecodeCost decodeCost;
    /** Encoded length of the DIR instruction in bits (fetch charge). */
    uint64_t bits = 0;
    /**
     * Generation steps: one per emitted short instruction (construct),
     * mirrored by one buffer-array store each when the translation is
     * written to the DTB. Together these feed the paper's g.
     */
    uint64_t genSteps = 0;
};

/**
 * Memoizes decodeAt() results for one immutable image.
 *
 * The simulated machine re-decodes a DIR instruction on every
 * conventional fetch and every DTB miss — that re-decoding *cost* is
 * the paper's whole subject and is charged unchanged from the cached
 * DecodeResult. The host, however, only pays the bitstream walk once
 * per distinct pc; a memo hit replays the stored result. Slots are
 * indexed by instruction index, so the memo needs no invalidation: the
 * image is immutable and owns the pc -> index mapping.
 */
class DecodeMemo
{
  public:
    /** @param image the static representation (must outlive this). */
    explicit DecodeMemo(const EncodedDir &image)
        : image_(&image), valid_(image.numInstrs(), 0),
          results_(image.numInstrs())
    {}

    /** Decode the instruction at @p bit_addr, cached. */
    const DecodeResult &
    decodeAt(uint64_t bit_addr)
    {
        size_t idx = image_->indexOfBitAddr(bit_addr);
        if (!valid_[idx]) {
            results_[idx] = image_->decodeAt(bit_addr);
            valid_[idx] = 1;
            ++misses_;
        } else {
            ++hits_;
        }
        return results_[idx];
    }

    const EncodedDir &image() const { return *image_; }

    /** Memo hits (host-side replays) so far. */
    uint64_t hits() const { return hits_; }

    /** Memo misses (actual bitstream decodes) so far. */
    uint64_t misses() const { return misses_; }

  private:
    const EncodedDir *image_;
    std::vector<uint8_t> valid_;
    std::vector<DecodeResult> results_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Translates DIR instructions to PSDER on DTB misses.
 *
 * A translation is a pure function of (image, pc), so each is made
 * once per translator and memoized by instruction index. Every
 * translation's code goes into one pool reserved for the longest
 * possible lowering of every instruction, so translating allocates
 * nothing and a Translation's code stays put for the translator's
 * life.
 */
class DynamicTranslator
{
  public:
    /** @param image the static representation (must outlive this). */
    explicit DynamicTranslator(const EncodedDir &image)
        : image_(&image), memo_(image.numInstrs())
    {
        pool_.reserve(image.numInstrs() * Staging::maxShortInstrs);
    }

    // Memoized translations point into pool_: a copy would point into
    // the original's, a move keeps the buffer.
    DynamicTranslator(const DynamicTranslator &) = delete;
    DynamicTranslator &operator=(const DynamicTranslator &) = delete;
    DynamicTranslator(DynamicTranslator &&) = default;
    DynamicTranslator &operator=(DynamicTranslator &&) = default;

    /**
     * Translate the DIR instruction at @p dir_bit_addr.
     *
     * Memoized: a repeated DTB miss on a previously-seen pc replays the
     * cached translation instead of re-walking the bitstream and
     * re-lowering the staging. The cached Translation carries the same
     * decodeCost/bits/genSteps the cold path produced, so simulated
     * cycle accounting is identical on both paths.
     */
    const Translation &
    translate(uint64_t dir_bit_addr)
    {
        Translation &tr = memo_[image_->indexOfBitAddr(dir_bit_addr)];
        if (tr.code.empty()) {
            DecodeResult res = image_->decodeAt(dir_bit_addr);
            const size_t begin = pool_.size();
            lowerStaging(stageInstruction(res.instr, *image_, res.index),
                         pool_);
            uhm_assert(pool_.size() - begin <= Staging::maxShortInstrs,
                       "translation outgrew its pool share");
            tr.code = {pool_.data() + begin, pool_.size() - begin};
            tr.decodeCost = res.cost;
            tr.bits = res.nextBitAddr - dir_bit_addr;
            tr.genSteps = tr.code.size();
        }
        return tr;
    }

    const EncodedDir &image() const { return *image_; }

  private:
    const EncodedDir *image_;
    /** By instruction index; empty code = not translated yet (every
     *  translation ends in an INTERP). */
    std::vector<Translation> memo_;
    /** Every translation's code; never reallocated. */
    std::vector<ShortInstr> pool_;
};

} // namespace uhm

#endif // UHM_CORE_TRANSLATOR_HH
