/**
 * @file
 * Minimum-redundancy (Huffman) coding of DIR fields.
 *
 * Section 3.2 of the paper describes frequency-based encodings of
 * operators and operands (citing Huffman 1952, Wilner's B1700 and
 * Hehner), including the practical refinement of restricting codeword
 * lengths "to a small number of selected lengths" to simplify decoding.
 * This module provides:
 *
 *  - optimal unrestricted Huffman codes,
 *  - optimal length-limited codes (package-merge), and
 *  - quantized codes whose lengths are drawn from a small allowed set
 *    (the B1700-style compromise).
 *
 * Decoding runs through a canonical-Huffman lookup table: a root table
 * (up to 11 bits wide) with overflow subtables for longer codewords, fed
 * by a multi-bit BitReader::peek/consume pair. It reports the number of
 * decode-tree edges the *simulated* machine would traverse (the codeword
 * length), so every cycle count in the system is the paper's
 * one-edge-per-bit charge. The explicit decode tree is never built on
 * the host: its node count, the resident metadata the encoders report,
 * follows from the canonical codewords alone.
 */

#ifndef UHM_SUPPORT_HUFFMAN_HH
#define UHM_SUPPORT_HUFFMAN_HH

#include <cstdint>
#include <vector>

#include "support/bitstream.hh"

namespace uhm
{

/**
 * A canonical prefix code over the symbol alphabet [0, n).
 *
 * Symbols with zero recorded frequency still receive a codeword (the
 * encoder must be total: a dynamic run may execute instructions that were
 * rare in the static image used to gather statistics).
 */
class HuffmanCode
{
  public:
    HuffmanCode() = default;

    /**
     * Build an optimal prefix code from frequencies.
     * @param freqs frequency of each symbol; size defines the alphabet
     * @param max_len 0 for unrestricted, otherwise the maximum codeword
     *                length (package-merge; must satisfy
     *                2^max_len >= alphabet size)
     */
    static HuffmanCode build(const std::vector<uint64_t> &freqs,
                             unsigned max_len = 0);

    /**
     * Build a code whose codeword lengths all belong to @p allowed_lens
     * (sorted ascending). Models the B1700's restricted field lengths.
     */
    static HuffmanCode buildQuantized(
        const std::vector<uint64_t> &freqs,
        const std::vector<unsigned> &allowed_lens);

    /** Append the codeword for @p symbol. */
    void encode(BitWriter &bw, uint64_t symbol) const;

    /**
     * Decode one symbol through the canonical lookup table: one peek
     * into the root table, at most one more into an overflow subtable,
     * one consume. Inline: this is the innermost operation of every
     * Huffman decoder.
     * @param tree_steps if non-null, incremented once per tree edge
     *                   the simulated machine traverses (the codeword
     *                   length)
     */
    uint64_t
    decode(BitReader &br, uint64_t *tree_steps = nullptr) const
    {
        uint32_t slot = root_[br.peek(rootBits_)];
        if (slot & slotOverflow) {
            // Codeword longer than the root window: one more peek
            // selects the overflow subtable slot.
            unsigned width = slot & slotLenMask;
            uint64_t low = br.peek(rootBits_ + width) &
                           ((uint64_t{1} << width) - 1);
            slot = overflow_[(slot >> slotPayloadShift) + low];
            uhm_assert(!(slot & slotOverflow),
                       "decode fell off the table");
        }
        unsigned len = slot & slotLenMask;
        uhm_assert(len > 0, "decode fell off the table");
        br.consume(len);
        // The simulated machine still walks one decode-tree edge per
        // codeword bit; only the host-side work shrank.
        if (tree_steps)
            *tree_steps += len;
        return slot >> slotPayloadShift;
    }

    /** Codeword length of @p symbol in bits. */
    unsigned lengthOf(uint64_t symbol) const;

    /** Canonical codeword of @p symbol (its lengthOf() low bits). */
    uint64_t codeOf(uint64_t symbol) const { return codes_.at(symbol); }

    /** Alphabet size. */
    size_t alphabetSize() const { return lengths_.size(); }

    /** True once built with a non-empty alphabet. */
    bool valid() const { return !lengths_.empty(); }

    /**
     * Expected codeword length under @p freqs, in bits per symbol.
     * Used to compare against the entropy bound in tests.
     */
    double expectedLength(const std::vector<uint64_t> &freqs) const;

    /**
     * Number of nodes in the decode tree, leaves included — a proxy
     * for the decode-table memory the interpreter must keep resident
     * (the paper: "this also increases the amount of memory occupied
     * by the interpreter"). Counted, not built: every node is a
     * distinct prefix of some codeword (the root is the empty one).
     */
    size_t decodeTreeNodes() const { return treeNodes_; }

    /** All codeword lengths (indexed by symbol). */
    const std::vector<unsigned> &lengths() const { return lengths_; }

    /** Longest codeword length in bits (0 before build). */
    unsigned maxCodeLength() const { return maxLen_; }

    /**
     * Largest lookup table (root plus overflow subtables) a code may
     * build, in bytes; building a code that needs more is a fatal()
     * error. Each overflow subtable spans 2^(its longest suffix) slots,
     * so a code with a long tail of rare symbols could otherwise ask
     * for gigabytes. 1 MiB, the same bound as mem's maxBufferBytes.
     */
    static constexpr uint64_t maxDecodeTableBytes = uint64_t{1} << 20;

  private:
    /** Widest root lookup the table decoder will build. */
    static constexpr unsigned maxRootBits = 11;

    static HuffmanCode fromLengths(std::vector<unsigned> lengths);

    /** Fill the lookup tables; @p order lists the symbols in
     *  canonical (length-major, then symbol) order. */
    void buildDecodeTable(const std::vector<uint32_t> &order);

    /** Canonical codeword per symbol. */
    std::vector<uint64_t> codes_;
    /** Codeword length per symbol. */
    std::vector<unsigned> lengths_;

    /** Nodes of the decode tree the codes define (decodeTreeNodes). */
    size_t treeNodes_ = 0;

    /**
     * One lookup-table slot, packed into 32 bits so a decode touches a
     * single word:
     *
     *   bits 0-6  codeword length (terminal) or subtable index width
     *             (overflow pointer); 0 marks an invalid slot — a
     *             window no codeword matches, reachable only from a
     *             corrupt stream
     *   bit  7    overflow-pointer flag (root table only)
     *   bits 8-31 decoded symbol (terminal) or subtable offset into
     *             overflow_ (overflow pointer)
     */
    static constexpr uint32_t slotLenMask = 0x7f;
    static constexpr uint32_t slotOverflow = 0x80;
    static constexpr unsigned slotPayloadShift = 8;
    /** Largest symbol / subtable offset a slot can carry. */
    static constexpr uint32_t slotPayloadMax = (1u << 24) - 1;

    /** Root lookup table, indexed by the next rootBits_ stream bits. */
    std::vector<uint32_t> root_;
    /** Overflow subtables, one span per long-codeword root prefix. */
    std::vector<uint32_t> overflow_;
    unsigned rootBits_ = 0;
    unsigned maxLen_ = 0;
};

/** Shannon entropy of a frequency vector, in bits per symbol. */
double entropyBits(const std::vector<uint64_t> &freqs);

} // namespace uhm

#endif // UHM_SUPPORT_HUFFMAN_HH
