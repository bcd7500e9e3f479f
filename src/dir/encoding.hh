/**
 * @file
 * Encoded DIR images: the "degree of encoding" axis of Figure 1.
 *
 * A DirProgram can be lowered into six binary encodings of increasing
 * sophistication (and decreasing size):
 *
 *  - Expanded:    every field in its own machine word — the size and
 *                 decode cost of an expanded machine-language (DER-like)
 *                 image; the baseline for compaction ratios.
 *  - Packed:      fixed-width bit fields packed across word boundaries.
 *  - Contextual:  like Packed, but operand field widths shrink per
 *                 contour using the scope rules (section 3.2).
 *  - Huffman:     opcodes and operand value tokens coded by static
 *                 frequency (Wilner/Hehner-style).
 *  - PairHuffman: Huffman with a separate opcode decode tree per
 *                 predecessor opcode ("frequency of pairs", section 3.2).
 *  - Quantized:   Huffman with codeword lengths restricted to a small
 *                 selected set, as in the Burroughs B1700 (section 3.2) —
 *                 slightly larger images, much simpler decoding.
 *
 * Instructions are addressed by bit offset — the DIR address space seen
 * by the DTB. Decoders return, along with the instruction, a DecodeCost
 * that counts the primitive work performed (field extractions, decode
 * tree edges, metadata table lookups); the host-machine simulator turns
 * these counts into the paper's parameter d. decodeAt() is the one
 * decode routine each encoder writes.
 */

#ifndef UHM_DIR_ENCODING_HH
#define UHM_DIR_ENCODING_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dir/program.hh"
#include "support/bitstream.hh"
#include "support/logging.hh"

namespace uhm
{

/** The encoding schemes, ordered by increasing degree of encoding. */
enum class EncodingScheme : uint8_t
{
    Expanded,
    Packed,
    Contextual,
    Huffman,
    PairHuffman,
    Quantized,

    NUM_SCHEMES
};

/** Number of encoding schemes. */
constexpr size_t numEncodingSchemes =
    static_cast<size_t>(EncodingScheme::NUM_SCHEMES);

/** Human-readable scheme name. */
const char *encodingName(EncodingScheme scheme);

/** All schemes, for parameterized tests and sweeps. */
const std::vector<EncodingScheme> &allEncodingSchemes();

/** Primitive-operation counts incurred while decoding. */
struct DecodeCost
{
    /** Shift-and-mask field extractions. */
    uint64_t fieldExtracts = 0;
    /** Decode-tree edges traversed (Huffman variants). */
    uint64_t treeEdges = 0;
    /** Metadata table lookups (contour widths, token values, ...). */
    uint64_t tableLookups = 0;

    DecodeCost &
    operator+=(const DecodeCost &o)
    {
        fieldExtracts += o.fieldExtracts;
        treeEdges += o.treeEdges;
        tableLookups += o.tableLookups;
        return *this;
    }

    /** Total primitive operations. */
    uint64_t total() const
    {
        return fieldExtracts + treeEdges + tableLookups;
    }
};

/** Result of decoding one instruction at a bit address. */
struct DecodeResult
{
    DirInstruction instr;
    /** Bit address of the sequentially next instruction. */
    uint64_t nextBitAddr = 0;
    /** Index of the decoded instruction. */
    size_t index = 0;
    DecodeCost cost;
};

/**
 * An encoded DIR image: the static representation resident in level-2
 * memory at run time.
 */
class EncodedDir
{
  public:
    virtual ~EncodedDir() = default;

    /** Decode the instruction starting at @p bit_addr. */
    virtual DecodeResult decodeAt(uint64_t bit_addr) const = 0;

    /**
     * Decode the whole image front to back into @p out (resized to
     * numInstrs()): decodeAt() on every instruction boundary. The
     * machines decode through decodeAt() alone; this bulk loop is what
     * bench_decode and perfbench time.
     */
    void decodeAll(std::vector<DecodeResult> &out) const;

    /**
     * Size in bits of the decoding metadata the interpreter must keep
     * resident (field-width tables, decode trees, token tables). This is
     * the "size of the interpreter ... increases" axis of Figure 1.
     */
    virtual uint64_t metadataBits() const = 0;

    /** Scheme of this image. */
    EncodingScheme scheme() const { return scheme_; }

    /** Total image size in bits. */
    uint64_t bitSize() const { return bitSize_; }

    /** Bit address of instruction @p index. */
    uint64_t
    bitAddrOf(size_t index) const
    {
        uhm_assert(index < bitAddrs_.size(),
                   "instruction index %zu out of range", index);
        return bitAddrs_[index];
    }

    /** Index of the instruction at @p bit_addr (must be exact). */
    size_t
    indexOfBitAddr(uint64_t bit_addr) const
    {
        // Acquire pairs with the release in buildAddrIndex(); after the
        // first lookup this is one predictable branch on a hot flag.
        if (!addrIndexReady_.load(std::memory_order_acquire))
            buildAddrIndex();
        if (!addrIndex_.empty()) {
            uint32_t idx = bit_addr < addrIndex_.size() ?
                addrIndex_[bit_addr] : UINT32_MAX;
            uhm_assert(idx != UINT32_MAX,
                       "bit address %llu is not an instruction boundary",
                       static_cast<unsigned long long>(bit_addr));
            return idx;
        }
        return indexOfBitAddrSlow(bit_addr);
    }

    /** Number of instructions in the image. */
    size_t numInstrs() const { return bitAddrs_.size(); }

    /** Bit address of the program entry point. */
    uint64_t entryBitAddr() const { return bitAddrOf(program_->entry); }

    /** The symbolic program this image encodes. */
    const DirProgram &program() const { return *program_; }

    /** Average encoded instruction length in bits. */
    double
    meanInstrBits() const
    {
        return bitAddrs_.empty() ? 0.0 :
            static_cast<double>(bitSize_) /
            static_cast<double>(bitAddrs_.size());
    }

  protected:
    EncodedDir(EncodingScheme scheme, const DirProgram &program)
        : scheme_(scheme), program_(&program)
    {
        for (size_t op = 0; op < numOps; ++op)
            operandsOf_[op] = opInfo(static_cast<Op>(op)).operands;
    }

    /**
     * opInfo(op).operands, cached per image so decode inner loops index
     * a flat array instead of making the out-of-line opInfo() call.
     */
    const OperandKinds &
    operandsOf(Op op) const
    {
        return operandsOf_[static_cast<size_t>(op)];
    }

    EncodingScheme scheme_;
    const DirProgram *program_;
    /** Packed image. */
    std::vector<uint8_t> bytes_;
    /** Image length in bits. */
    uint64_t bitSize_ = 0;
    /** Bit address of each instruction, ascending. */
    std::vector<uint64_t> bitAddrs_;
    /** Flat opcode -> operand-kind list (see operandsOf()). */
    std::array<OperandKinds, numOps> operandsOf_{};

  private:
    /**
     * Direct bit-addr -> instruction-index map, built once on first
     * lookup (the encoder subclass constructors fill bitAddrs_ last, so
     * construction cannot build it). Stays empty for images too large
     * for a flat table, which fall back to binary search over
     * bitAddrs_. Thread-safe: a mutex serializes builders and
     * addrIndexReady_ publishes the result.
     */
    void buildAddrIndex() const;

    /** Binary-search fallback for images beyond the flat-table cap. */
    size_t indexOfBitAddrSlow(uint64_t bit_addr) const;

    mutable std::vector<uint32_t> addrIndex_;
    mutable std::atomic<bool> addrIndexReady_{false};
    mutable std::mutex addrIndexMutex_;
};

/**
 * Encode @p program with @p scheme. The program must outlive the image.
 */
std::unique_ptr<EncodedDir> encodeDir(const DirProgram &program,
                                      EncodingScheme scheme);

} // namespace uhm

#endif // UHM_DIR_ENCODING_HH
