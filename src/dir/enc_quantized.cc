/**
 * @file
 * Quantized (restricted-length) Huffman encoding.
 *
 * "It is possible to restrict the permitted field lengths to a small
 * number of selected lengths. This simplifies the decoding problem
 * without sacrificing much by way of memory efficiency." (section 3.2,
 * citing the Burroughs B1700's variable-length opcode field, which used
 * exactly this compromise.)
 *
 * Structure matches the Huffman scheme — dense opcode alphabet plus
 * per-kind operand token tables — but every prefix code is built with
 * HuffmanCode::buildQuantized over the allowed length set {2,4,6,8,12},
 * so a hardware decoder needs only a handful of fixed-width probes
 * instead of a bit-serial tree walk. The cost model reflects that:
 * decoding charges one field extraction per *probe* (a length-class
 * test) rather than one tree edge per bit.
 */

#include <array>

#include "dir/enc_huffman_common.hh"
#include "dir/encoding.hh"
#include "support/logging.hh"

namespace uhm
{

namespace
{

/**
 * The allowed codeword lengths: the B1700-style base set {2,4,6,8,12},
 * extended in steps of 4 bits when the alphabet needs longer codes.
 */
std::vector<unsigned>
allowedLengthsFor(size_t alphabet)
{
    std::vector<unsigned> lengths = {2, 4, 6, 8, 12};
    while ((1ull << lengths.back()) < alphabet)
        lengths.push_back(lengths.back() + 4);
    return lengths;
}

/** A quantized prefix code plus its length classes. */
struct QuantCode
{
    HuffmanCode code;
    std::vector<unsigned> lengths;
    /** Probe count per codeword length (index = length in bits). */
    std::vector<uint8_t> probesByLen;

    /** Fixed-width probes needed to decode a codeword of @p len. */
    uint64_t
    probesFor(unsigned len) const
    {
        for (size_t i = 0; i < lengths.size(); ++i) {
            if (lengths[i] >= len)
                return i + 1;
        }
        panic("length %u outside the allowed set", len);
    }
};

/** Quantized code over a dense alphabet with frequencies @p freqs. */
QuantCode
buildCode(const std::vector<uint64_t> &freqs)
{
    QuantCode qc;
    qc.lengths = allowedLengthsFor(freqs.size());
    qc.code = HuffmanCode::buildQuantized(freqs, qc.lengths);
    qc.probesByLen.assign(qc.code.maxCodeLength() + 1, 0);
    for (unsigned len = 1; len <= qc.code.maxCodeLength(); ++len)
        qc.probesByLen[len] = static_cast<uint8_t>(qc.probesFor(len));
    return qc;
}

class QuantizedDir : public EncodedDir
{
  public:
    explicit QuantizedDir(const DirProgram &program)
        : EncodedDir(EncodingScheme::Quantized, program)
    {
        // Operand token tables as in the Huffman scheme, but with
        // quantized codes.
        tokens_ = buildTokenTables(program);
        tokenCodes_.resize(tokens_.size());
        for (size_t ki = 0; ki < tokens_.size(); ++ki) {
            TokenTable &tt = tokens_[ki];
            if (!tt.used)
                continue;
            std::vector<uint64_t> freqs(tt.values.size(), 0);
            for (const DirInstruction &ins : program.instrs) {
                const OpInfo &info = opInfo(ins.op);
                for (size_t k = 0; k < info.operands.size(); ++k) {
                    if (static_cast<size_t>(info.operands[k]) == ki)
                        ++freqs[tt.token(ins.operands[k])];
                }
            }
            tokenCodes_[ki] = buildCode(freqs);
            tt.code = tokenCodes_[ki].code;
        }

        // Dense opcode alphabet.
        std::vector<uint64_t> all_freqs = opcodeFrequencies(program);
        std::vector<uint64_t> freqs;
        for (size_t op = 0; op < numOps; ++op) {
            if (all_freqs[op] > 0) {
                opOfToken_.push_back(static_cast<uint8_t>(op));
                tokenOfOp_[op] = static_cast<uint32_t>(freqs.size());
                freqs.push_back(all_freqs[op]);
            }
        }
        opCode_ = buildCode(freqs);

        BitWriter bw;
        for (const DirInstruction &ins : program.instrs) {
            bitAddrs_.push_back(bw.bitSize());
            opCode_.code.encode(
                bw, tokenOfOp_[static_cast<size_t>(ins.op)]);
            const OpInfo &info = opInfo(ins.op);
            for (size_t k = 0; k < info.operands.size(); ++k) {
                size_t ki = static_cast<size_t>(info.operands[k]);
                tokenCodes_[ki].code.encode(
                    bw, tokens_[ki].token(ins.operands[k]));
            }
        }
        bitSize_ = bw.bitSize();
        bytes_ = bw.takeBytes();
    }

    DecodeResult
    decodeAt(uint64_t bit_addr) const override
    {
        BitReader br(bytes_.data(), bitSize_);
        br.seek(bit_addr);

        DecodeResult res;
        res.index = indexOfBitAddr(bit_addr);

        uint64_t token = decodeField(br, opCode_, res.cost);
        uhm_assert(token < opOfToken_.size(), "bad opcode token %llu",
                   static_cast<unsigned long long>(token));
        res.instr.op = static_cast<Op>(opOfToken_[token]);

        const OperandKinds &ops = operandsOf(res.instr.op);
        for (size_t k = 0; k < ops.size(); ++k) {
            size_t ki = static_cast<size_t>(ops[k]);
            uint64_t t = decodeField(br, tokenCodes_[ki], res.cost);
            // In range: the token came out of this kind's own code.
            res.instr.operands[k] = tokens_[ki].values[t];
            res.cost.tableLookups += 1;
        }
        res.nextBitAddr = br.pos();
        return res;
    }

    uint64_t
    metadataBits() const override
    {
        uint64_t bits = opCode_.code.decodeTreeNodes() * 32 +
                        opOfToken_.size() * 8;
        for (const TokenTable &tt : tokens_)
            bits += tt.metadataBits();
        return bits;
    }

  private:
    /**
     * Decode one quantized field, charging one extraction per
     * length-class probe instead of one tree edge per bit.
     */
    uint64_t
    decodeField(BitReader &br, const QuantCode &qc, DecodeCost &cost) const
    {
        size_t before = br.pos();
        uint64_t symbol = qc.code.decode(br);
        // The cursor advanced by exactly the codeword length, so the
        // probe charge is one precomputed lookup away.
        cost.fieldExtracts += qc.probesByLen[br.pos() - before];
        return symbol;
    }

    std::vector<TokenTable> tokens_;
    std::vector<QuantCode> tokenCodes_;
    QuantCode opCode_;
    std::vector<uint8_t> opOfToken_;
    std::array<uint32_t, numOps> tokenOfOp_{};
};

} // anonymous namespace

std::unique_ptr<EncodedDir>
makeQuantizedDir(const DirProgram &program)
{
    return std::make_unique<QuantizedDir>(program);
}

} // namespace uhm
