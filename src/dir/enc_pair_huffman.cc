/**
 * @file
 * Pair-context Huffman encoding.
 *
 * "The idea of frequency based encoding may be generalized by considering
 * the frequency of occurrence of pairs, triples, etc., rather than single
 * operators and operands. ... An encoding based on the frequency of pairs
 * of fields would require a separate decode tree for each possible
 * predecessor field." (section 3.2)
 *
 * The opcode of instruction i is coded with a prefix code trained on the
 * conditional distribution P(op | op of instruction i-1); the first
 * instruction uses a distinguished start context. Operand tokens are
 * coded as in the plain Huffman scheme. The per-context trees enlarge the
 * resident metadata — the space/decode-cost trade the paper flags.
 */

#include <array>

#include "dir/enc_huffman_common.hh"
#include "dir/encoding.hh"
#include "support/logging.hh"

namespace uhm
{

namespace
{

/** Context index of "no predecessor" (start of stream). */
constexpr size_t startContext = numOps;

class PairHuffmanDir : public EncodedDir
{
  public:
    explicit PairHuffmanDir(const DirProgram &program)
        : EncodedDir(EncodingScheme::PairHuffman, program),
          tokens_(buildTokenTables(program))
    {
        // Conditional opcode frequencies per predecessor context.
        std::vector<std::vector<uint64_t>> pair_freqs(
            numOps + 1, std::vector<uint64_t>(numOps, 0));
        prevContext_.resize(program.instrs.size());
        size_t ctx = startContext;
        for (size_t i = 0; i < program.instrs.size(); ++i) {
            prevContext_[i] = static_cast<uint32_t>(ctx);
            ++pair_freqs[ctx][static_cast<size_t>(program.instrs[i].op)];
            ctx = static_cast<size_t>(program.instrs[i].op);
        }

        // Each context codes only the opcodes that actually follow it;
        // the decode-tree leaves carry the dense-token -> opcode map.
        contexts_.resize(numOps + 1);
        for (size_t c = 0; c <= numOps; ++c) {
            ContextCode &cc = contexts_[c];
            std::vector<uint64_t> freqs;
            for (size_t op = 0; op < numOps; ++op) {
                if (pair_freqs[c][op] > 0) {
                    cc.opOfToken.push_back(static_cast<uint8_t>(op));
                    cc.tokenOfOp[op] =
                        static_cast<uint32_t>(freqs.size());
                    freqs.push_back(pair_freqs[c][op]);
                }
            }
            if (!freqs.empty())
                cc.code = HuffmanCode::build(freqs);
        }

        BitWriter bw;
        for (size_t i = 0; i < program.instrs.size(); ++i) {
            const DirInstruction &ins = program.instrs[i];
            bitAddrs_.push_back(bw.bitSize());
            const ContextCode &cc = contexts_[prevContext_[i]];
            cc.code.encode(
                bw, cc.tokenOfOp[static_cast<size_t>(ins.op)]);
            const OpInfo &info = opInfo(ins.op);
            for (size_t k = 0; k < info.operands.size(); ++k) {
                const TokenTable &tt =
                    tokens_[static_cast<size_t>(info.operands[k])];
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

        // Selecting the decode tree for this predecessor context is one
        // table lookup.
        const ContextCode &cc = contexts_[prevContext_[res.index]];
        res.cost.tableLookups += 1;

        uint64_t token = cc.code.decode(br, &res.cost.treeEdges);
        uhm_assert(token < cc.opOfToken.size(), "bad opcode token %llu",
                   static_cast<unsigned long long>(token));
        res.instr.op = static_cast<Op>(cc.opOfToken[token]);

        const OperandKinds &ops = operandsOf(res.instr.op);
        for (size_t k = 0; k < ops.size(); ++k) {
            const TokenTable &tt =
                tokens_[static_cast<size_t>(ops[k])];
            uint64_t token = tt.code.decode(br, &res.cost.treeEdges);
            // In range: the token came out of tt's own code.
            res.instr.operands[k] = tt.values[token];
            res.cost.tableLookups += 1;
        }
        res.nextBitAddr = br.pos();
        return res;
    }

    uint64_t
    metadataBits() const override
    {
        uint64_t bits = 0;
        for (const ContextCode &cc : contexts_) {
            if (cc.code.valid())
                bits += cc.code.decodeTreeNodes() * 32 +
                        cc.opOfToken.size() * 8;
        }
        for (const TokenTable &tt : tokens_)
            bits += tt.metadataBits();
        return bits;
    }

  private:
    /** Prefix code + token maps of one predecessor context. */
    struct ContextCode
    {
        HuffmanCode code;
        /** dense token -> opcode. */
        std::vector<uint8_t> opOfToken;
        /** opcode -> dense token. */
        std::array<uint32_t, numOps> tokenOfOp{};
    };

    std::vector<TokenTable> tokens_;
    /** One opcode code per predecessor context (last is start). */
    std::vector<ContextCode> contexts_;
    /** Predecessor context of each instruction. */
    std::vector<uint32_t> prevContext_;
};

} // anonymous namespace

std::unique_ptr<EncodedDir>
makePairHuffmanDir(const DirProgram &program)
{
    return std::make_unique<PairHuffmanDir>(program);
}

} // namespace uhm
