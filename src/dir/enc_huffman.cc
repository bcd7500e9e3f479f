/**
 * @file
 * Huffman encoding: opcodes and operand tokens coded by static frequency.
 *
 * "A more sophisticated encoding of the Huffman type may be employed by
 * measuring the frequency of occurrence of each operator and operand in
 * the static representation of the program. Often occurring items are
 * represented by fields of shorter length..." (section 3.2). Decoding
 * "entails traversing a decoding tree guided by an examination of the
 * encoded field", which the decoder reports as treeEdges.
 */

#include <array>

#include "dir/enc_huffman_common.hh"
#include "dir/encoding.hh"
#include "support/logging.hh"

namespace uhm
{

namespace
{

class HuffmanDir : public EncodedDir
{
  public:
    explicit HuffmanDir(const DirProgram &program)
        : EncodedDir(EncodingScheme::Huffman, program),
          tokens_(buildTokenTables(program))
    {
        // Dense opcode alphabet: only opcodes the program uses receive
        // codewords; decode-tree leaves carry the token -> opcode map.
        std::vector<uint64_t> all_freqs = opcodeFrequencies(program);
        std::vector<uint64_t> freqs;
        freqs.reserve(numOps);
        opOfToken_.reserve(numOps);
        for (size_t op = 0; op < numOps; ++op) {
            if (all_freqs[op] > 0) {
                opOfToken_.push_back(static_cast<uint8_t>(op));
                tokenOfOp_[op] = static_cast<uint32_t>(freqs.size());
                freqs.push_back(all_freqs[op]);
            }
        }
        opCode_ = HuffmanCode::build(freqs);

        // One allocation each for the address list and the image: the
        // image is at most every field at its code's longest length.
        size_t max_bits = 0;
        for (const DirInstruction &ins : program.instrs) {
            max_bits += opCode_.maxCodeLength();
            for (OperandKind kind : operandsOf(ins.op))
                max_bits +=
                    tokens_[static_cast<size_t>(kind)].code.maxCodeLength();
        }
        BitWriter bw;
        bw.reserve(max_bits);
        bitAddrs_.reserve(program.instrs.size());
        for (const DirInstruction &ins : program.instrs) {
            bitAddrs_.push_back(bw.bitSize());
            opCode_.encode(bw, tokenOfOp_[static_cast<size_t>(ins.op)]);
            const OperandKinds &kinds = operandsOf(ins.op);
            for (size_t k = 0; k < kinds.size(); ++k) {
                const TokenTable &tt = tokens_[static_cast<size_t>(kinds[k])];
                tt.code.encode(bw, tt.token(ins.operands[k]));
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

        uint64_t token = opCode_.decode(br, &res.cost.treeEdges);
        uhm_assert(token < opOfToken_.size(), "bad opcode token %llu",
                   static_cast<unsigned long long>(token));
        res.instr.op = static_cast<Op>(opOfToken_[token]);

        const OperandKinds &ops = operandsOf(res.instr.op);
        for (size_t k = 0; k < ops.size(); ++k) {
            const TokenTable &tt =
                tokens_[static_cast<size_t>(ops[k])];
            uint64_t token = tt.code.decode(br, &res.cost.treeEdges);
            // Mapping the token back to its value is one table lookup.
            // The token came out of tt's own code, so it is in range.
            res.instr.operands[k] = tt.values[token];
            res.cost.tableLookups += 1;
        }
        res.nextBitAddr = br.pos();
        return res;
    }

    uint64_t
    metadataBits() const override
    {
        uint64_t bits = opCode_.decodeTreeNodes() * 32 +
                        opOfToken_.size() * 8;
        for (const TokenTable &tt : tokens_)
            bits += tt.metadataBits();
        return bits;
    }

  private:
    std::vector<TokenTable> tokens_;
    HuffmanCode opCode_;
    /** dense token -> opcode. */
    std::vector<uint8_t> opOfToken_;
    /** opcode -> dense token. */
    std::array<uint32_t, numOps> tokenOfOp_{};
};

} // anonymous namespace

std::unique_ptr<EncodedDir>
makeHuffmanDir(const DirProgram &program)
{
    return std::make_unique<HuffmanDir>(program);
}

} // namespace uhm
