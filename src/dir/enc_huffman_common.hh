/**
 * @file
 * Shared machinery for the frequency-based (Huffman) DIR encodings:
 * per-operand-kind token dictionaries with Huffman-coded token numbers.
 *
 * Operand values (constants, slots, targets, ...) are replaced by
 * dictionary tokens — the paper's "symbolic names ... replaced by
 * numerical tokens" taken to its coding-theoretic end: the token numbers
 * themselves are Huffman coded by static frequency.
 */

#ifndef UHM_DIR_ENC_HUFFMAN_COMMON_HH
#define UHM_DIR_ENC_HUFFMAN_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dir/program.hh"
#include "support/huffman.hh"
#include "support/logging.hh"

namespace uhm
{

/** Token dictionary + prefix code for one operand kind. */
struct TokenTable
{
    /** token -> operand value. */
    std::vector<int64_t> values;
    /** (operand value, token), sorted by value: token()'s index. */
    std::vector<std::pair<int64_t, uint32_t>> byValue;
    /** Prefix code over tokens. */
    HuffmanCode code;
    /** True if this kind occurs in the program. */
    bool used = false;

    /** The token of operand value @p v, which must be in the table. */
    uint32_t
    token(int64_t v) const
    {
        auto it = std::lower_bound(
            byValue.begin(), byValue.end(), v,
            [](const auto &e, int64_t x) { return e.first < x; });
        uhm_assert(it != byValue.end() && it->first == v,
                   "operand value %lld has no token",
                   static_cast<long long>(v));
        return it->second;
    }

    /** Bits of resident metadata (value table + decode tree). */
    uint64_t
    metadataBits() const
    {
        if (!used)
            return 0;
        // 32-bit value per token plus two 16-bit links per tree node.
        return values.size() * 32 + code.decodeTreeNodes() * 32;
    }
};

/** Build the token tables (dictionary + code) for every operand kind. */
std::vector<TokenTable> buildTokenTables(const DirProgram &program);

/** Static opcode frequencies of @p program. */
std::vector<uint64_t> opcodeFrequencies(const DirProgram &program);

} // namespace uhm

#endif // UHM_DIR_ENC_HUFFMAN_COMMON_HH
