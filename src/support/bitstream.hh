/**
 * @file
 * Bit-granular streams.
 *
 * The paper's encoded DIRs use "fields which are packed together and
 * allowed to span the boundaries of the units of memory access" (section
 * 3.2). BitWriter and BitReader provide that packing: values of 1..64 bits
 * are written MSB-first into a contiguous byte image, and instructions are
 * addressed by *bit offset* — the DIR address space used by the DTB.
 */

#ifndef UHM_SUPPORT_BITSTREAM_HH
#define UHM_SUPPORT_BITSTREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace uhm
{

/** Append-only MSB-first bit stream writer. */
class BitWriter
{
  public:
    BitWriter() = default;

    /**
     * Append the low @p width bits of @p value, most significant first.
     * @param value the bits to write (must fit in @p width bits)
     * @param width field width in bits, 0..64 (0 writes nothing)
     */
    void write(uint64_t value, unsigned width);

    /** Append a single bit. */
    void writeBit(bool bit) { write(bit ? 1 : 0, 1); }

    /** Make room for a stream of @p bits bits in one allocation. */
    void reserve(size_t bits) { bytes_.reserve((bits + 7) >> 3); }

    /** Current length of the stream in bits. */
    size_t bitSize() const { return bitSize_; }

    /** The packed image, final byte zero-padded. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /** Release the packed image. */
    std::vector<uint8_t> takeBytes() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
    size_t bitSize_ = 0;
};

/**
 * MSB-first bit stream reader with random access by bit offset.
 *
 * The reader counts how many primitive extraction steps it has performed;
 * DIR decoders use this counter to ground the paper's decode-cost
 * parameter `d` in measured shift/mask work rather than an assumption.
 *
 * Extraction is word-at-a-time: the reader keeps a left-aligned 64-bit
 * shift register of upcoming stream bits. peek() answers from the
 * register and only touches memory when fewer bits remain than asked
 * for (one unaligned load + byte swap per ~64 consumed bits on the
 * common path, a zero-padding tail gather near the end of the image).
 * consume() advances the cursor with a shift, without charging an
 * extraction step — the peek-then-consume pair is the substrate of the
 * table-driven Huffman decoder (support/huffman.hh), which needs to
 * examine more bits than the codeword it finally accepts.
 */
class BitReader
{
  public:
    /** Wrap an existing byte image; does not take ownership. */
    BitReader(const uint8_t *data, size_t bit_size)
        : data_(data), bitSize_(bit_size)
    {}

    explicit BitReader(const std::vector<uint8_t> &bytes, size_t bit_size)
        : BitReader(bytes.data(), bit_size)
    {}

    /**
     * Read @p width bits at the cursor and advance.
     * @param width 0..64; reading past the end is a panic.
     */
    uint64_t read(unsigned width);

    /** Read a single bit at the cursor and advance. */
    bool readBit() { return read(1) != 0; }

    /** Peek @p width bits without advancing (short reads zero-pad). */
    uint64_t
    peek(unsigned width) const
    {
        if (width == 0)
            return 0;
        if (avail_ < width) {
            window_ = refillWindow(pos_);
            avail_ = 64;
        }
        return width >= 64 ? window_ : window_ >> (64 - width);
    }

    /**
     * Advance the cursor by @p width bits without extracting anything
     * (and without charging an extraction step). Panics past the end.
     */
    void
    consume(unsigned width)
    {
        uhm_assert(pos_ + width <= bitSize_,
                   "consume past end (pos %zu width %u size %zu)",
                   pos_, width, bitSize_);
        advance(width);
    }

    /** Move the cursor to an absolute bit offset. */
    void seek(size_t bit_pos);

    /** Advance the cursor by @p bits. */
    void skip(size_t bits) { seek(pos_ + bits); }

    /** Current cursor position in bits. */
    size_t pos() const { return pos_; }

    /** Total stream length in bits. */
    size_t bitSize() const { return bitSize_; }

    /** True when the cursor is at or past the end. */
    bool atEnd() const { return pos_ >= bitSize_; }

    /**
     * Number of primitive field-extraction operations performed so far.
     * One extraction models one shift-and-mask on the host machine.
     */
    uint64_t extractSteps() const { return extractSteps_; }

    /** Reset the extraction-step counter. */
    void resetSteps() { extractSteps_ = 0; }

  private:
    /**
     * The 64 bits starting at @p bit_pos, MSB-first. Bits at or past
     * bitSize_ read as zero — the window never loads past the last
     * byte of the image, and trailing garbage in a wrapped image's
     * final byte is masked off.
     */
    uint64_t refillWindow(size_t bit_pos) const;

    /** Advance the cursor by @p width bits, keeping the register. */
    void
    advance(unsigned width)
    {
        pos_ += width;
        window_ = width >= 64 ? 0 : window_ << width;
        avail_ = width >= avail_ ? 0 : avail_ - width;
    }

    const uint8_t *data_;
    size_t bitSize_;
    size_t pos_ = 0;
    uint64_t extractSteps_ = 0;
    /** Shift register: the next avail_ stream bits, left-aligned. */
    mutable uint64_t window_ = 0;
    /** Valid leading bits in window_; 0 = empty. */
    mutable unsigned avail_ = 0;
};

/** Zig-zag map a signed value into an unsigned one (order-preserving). */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode(). */
inline int64_t
zigzagDecode(uint64_t u)
{
    return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

/** Number of bits needed to represent @p v (at least 1). */
unsigned bitsFor(uint64_t v);

} // namespace uhm

#endif // UHM_SUPPORT_BITSTREAM_HH
