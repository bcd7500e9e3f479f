#include "support/bitstream.hh"

#include <cstring>

#include "support/logging.hh"

namespace uhm
{

namespace
{

/** Byte-swap to interpret 8 little-endian-loaded bytes MSB-first. */
inline uint64_t
bigEndian64(uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(v);
#else
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i)
        r = (r << 8) | ((v >> (8 * i)) & 0xff);
    return r;
#endif
}

} // anonymous namespace

void
BitWriter::write(uint64_t value, unsigned width)
{
    uhm_assert(width <= 64, "field width %u out of range", width);
    if (width < 64)
        uhm_assert((value >> width) == 0,
                   "value does not fit in %u bits", width);

    if (width == 0)
        return;
    // The field spans the partial last byte (from bit offset `used`)
    // and up to eight more: left-align it in a 128-bit word there and
    // OR the word's leading bytes in.
    const unsigned used = bitSize_ & 7;
    const size_t byte = bitSize_ >> 3;
    const unsigned span = used + width;
    bitSize_ += width;
    bytes_.resize((bitSize_ + 7) >> 3);
    const unsigned __int128 field =
        static_cast<unsigned __int128>(value) << (128 - span);
    for (unsigned i = 0; i * 8 < span; ++i)
        bytes_[byte + i] |= static_cast<uint8_t>(field >> (120 - 8 * i));
}

uint64_t
BitReader::refillWindow(size_t bit_pos) const
{
    size_t byte = bit_pos >> 3;
    unsigned shift = bit_pos & 7;
    size_t nbytes = (bitSize_ + 7) >> 3;

    uint64_t hi;
    uint8_t next;
    if (byte + 9 <= nbytes) {
        // Fast path: the window lies fully inside the image.
        std::memcpy(&hi, data_ + byte, 8);
        hi = bigEndian64(hi);
        next = data_[byte + 8];
    } else {
        // Tail: gather the available bytes and zero-pad the rest
        // instead of loading past the last word of the image.
        hi = 0;
        for (unsigned i = 0; i < 8; ++i) {
            hi <<= 8;
            if (byte + i < nbytes)
                hi |= data_[byte + i];
        }
        next = byte + 8 < nbytes ? data_[byte + 8] : 0;
    }
    uint64_t w = shift == 0 ?
        hi : (hi << shift) | (static_cast<uint64_t>(next) >> (8 - shift));

    // Bits at or past bitSize_ must read as zero even when the final
    // byte of a wrapped image carries garbage below the stream's end.
    if (bit_pos + 64 > bitSize_) {
        unsigned valid = bit_pos < bitSize_ ?
            static_cast<unsigned>(bitSize_ - bit_pos) : 0;
        w = valid == 0 ? 0 : (w >> (64 - valid)) << (64 - valid);
    }
    return w;
}

uint64_t
BitReader::read(unsigned width)
{
    uhm_assert(width <= 64, "field width %u out of range", width);
    uhm_assert(pos_ + width <= bitSize_,
               "bit read past end (pos %zu width %u size %zu)",
               pos_, width, bitSize_);

    if (width == 0)
        return 0;
    uint64_t v = peek(width);
    advance(width);
    ++extractSteps_;
    return v;
}

void
BitReader::seek(size_t bit_pos)
{
    uhm_assert(bit_pos <= bitSize_, "seek past end (%zu > %zu)",
               bit_pos, bitSize_);
    pos_ = bit_pos;
    avail_ = 0;
}

unsigned
bitsFor(uint64_t v)
{
    unsigned n = 1;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace uhm
