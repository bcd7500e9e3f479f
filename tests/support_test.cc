/**
 * @file
 * Unit tests for the support substrate: bit streams, Huffman coding,
 * logging, stats, RNG, wrapping arithmetic, table rendering, flag
 * parsing and hashing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "support/bitstream.hh"
#include "support/flags.hh"
#include "support/hash.hh"
#include "support/huffman.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/table.hh"
#include "support/wrap.hh"

namespace uhm
{
namespace
{

// ---- logging ---------------------------------------------------------------

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    try {
        fatal("user error %s", "details");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "user error details");
    }
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(uhm_assert(1 == 2, "math broke: %d", 7), PanicError);
}

TEST(Logging, AssertMacroPassesOnTrue)
{
    EXPECT_NO_THROW(uhm_assert(1 == 1, "fine"));
}

// ---- flags -----------------------------------------------------------------

TEST(Flags, ParsesValuesInRange)
{
    EXPECT_EQ(parseUintFlag("--n", "0", 0, 10), 0u);
    EXPECT_EQ(parseUintFlag("--n", "10", 0, 10), 10u);
    EXPECT_EQ(parseUintFlag("--n", "007", 1, 10), 7u);
    EXPECT_EQ(parseUintFlag("--n", "18446744073709551615", 0, UINT64_MAX),
              UINT64_MAX);
}

TEST(Flags, RejectsWhatStoullWouldWrapOrTruncate)
{
    for (const char *text : {"", "-1", "+1", " 1", "1 ", "1k", "0x10",
                             "18446744073709551616"}) {
        EXPECT_THROW(parseUintFlag("--n", text, 0, UINT64_MAX), FatalError)
            << "'" << text << "'";
    }
}

TEST(Flags, RejectsValuesOutsideTheRange)
{
    EXPECT_THROW(parseUintFlag("--n", "0", 1, 10), FatalError);
    EXPECT_THROW(parseUintFlag("--n", "11", 1, 10), FatalError);
    EXPECT_THROW(parseUintFlag("--n", "4294967296", 0, UINT32_MAX),
                 FatalError);
    try {
        parseUintFlag("--workers", "-1", 0, 256);
        FAIL() << "-1 was accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "--workers must be an integer in [0, 256], not '-1'");
    }
}

TEST(Flags, ParsesSignedIntegerLists)
{
    EXPECT_EQ(parseIntListFlag("--input", ""), std::vector<int64_t>{});
    EXPECT_EQ(parseIntListFlag("--input", "27"), std::vector<int64_t>{27});
    EXPECT_EQ(parseIntListFlag("--input",
                               "-3,0,007,9223372036854775807,"
                               "-9223372036854775808"),
              (std::vector<int64_t>{-3, 0, 7, INT64_MAX, INT64_MIN}));
}

TEST(Flags, IntegerListRejectsWhatStollWouldTruncate)
{
    for (const char *text : {"27x", "abc", "1,,2", "1,", ",1", "-", "--1",
                             "+1", " 1", "1 ", "0x10",
                             "9223372036854775808"}) {
        EXPECT_THROW(parseIntListFlag("--input", text), FatalError)
            << "'" << text << "'";
    }
    try {
        parseIntListFlag("--input", "3,27x");
        FAIL() << "27x was accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "--input must be a comma-separated list of "
                               "integers, not '3,27x'");
    }
}

TEST(Flags, ParsesPositiveNumbers)
{
    EXPECT_EQ(parsePositiveFlag("--watch", "1"), 1.0);
    EXPECT_EQ(parsePositiveFlag("--watch", "0.25"), 0.25);
    EXPECT_EQ(parsePositiveFlag("--watch", ".5"), 0.5);
    EXPECT_EQ(parsePositiveFlag("--watch", "2e-1"), 0.2);
    for (const char *text : {"", "0", "0.0", "-1", "+1", " 1", "1 ", "1x",
                             ".", "e1", "0x10", "inf", "nan", "1e999"}) {
        EXPECT_THROW(parsePositiveFlag("--watch", text), FatalError)
            << "'" << text << "'";
    }
}

// ---- hash ------------------------------------------------------------------

TEST(Hash, Fnv1aKnownValues)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
}

// ---- bitstream -------------------------------------------------------------

TEST(BitStream, SingleBits)
{
    BitWriter bw;
    bw.writeBit(true);
    bw.writeBit(false);
    bw.writeBit(true);
    EXPECT_EQ(bw.bitSize(), 3u);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_TRUE(br.readBit());
    EXPECT_FALSE(br.readBit());
    EXPECT_TRUE(br.readBit());
    EXPECT_TRUE(br.atEnd());
}

TEST(BitStream, ZeroWidthWritesNothing)
{
    BitWriter bw;
    bw.write(0, 0);
    EXPECT_EQ(bw.bitSize(), 0u);
}

TEST(BitStream, ValueTooWideForFieldPanics)
{
    BitWriter bw;
    EXPECT_THROW(bw.write(4, 2), PanicError);
}

TEST(BitStream, ReadPastEndPanics)
{
    BitWriter bw;
    bw.write(3, 2);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_THROW(br.read(3), PanicError);
}

TEST(BitStream, SeekAndPeek)
{
    BitWriter bw;
    bw.write(0b1011, 4);
    bw.write(0b0110, 4);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(br.peek(4), 0b1011u);
    EXPECT_EQ(br.pos(), 0u);
    br.seek(4);
    EXPECT_EQ(br.read(4), 0b0110u);
    br.seek(0);
    EXPECT_EQ(br.read(8), 0b10110110u);
}

TEST(BitStream, PeekPastEndZeroPads)
{
    BitWriter bw;
    bw.write(0b11, 2);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(br.peek(4), 0b1100u);
}

/**
 * The decode fast path reads the stream through peek()/consume(); it
 * must agree with read() at every boundary width, including widths that
 * straddle the 64-bit refill window.
 */
TEST(BitStream, PeekConsumeBoundaryWidths)
{
    Rng rng(2026);
    BitWriter bw;
    for (int i = 0; i < 3; ++i)
        bw.write(rng.next(), 64);
    const uint64_t total = bw.bitSize();
    for (unsigned width : {1u, 12u, 57u, 64u}) {
        BitReader ref(bw.bytes(), total);
        BitReader fast(bw.bytes(), total);
        while (ref.pos() + width <= total) {
            uint64_t expect = ref.read(width);
            EXPECT_EQ(fast.peek(width), expect) << "width " << width;
            fast.consume(width);
            EXPECT_EQ(fast.pos(), ref.pos());
        }
    }
}

TEST(BitStream, PeekBeyondEndZeroPadsWideWidths)
{
    BitWriter bw;
    bw.write(0b101, 3);
    BitReader br(bw.bytes(), bw.bitSize());
    // Fewer bits than asked for: the missing tail reads as zeros.
    EXPECT_EQ(br.peek(64), 0b101ull << 61);
    EXPECT_EQ(br.peek(12), 0b101u << 9);
    br.seek(3);
    EXPECT_EQ(br.peek(57), 0u);
}

TEST(BitStream, ConsumePastEndPanics)
{
    BitWriter bw;
    bw.write(0xf, 4);
    BitReader br(bw.bytes(), bw.bitSize());
    br.consume(3);
    EXPECT_THROW(br.consume(2), PanicError);
}

TEST(BitStream, ExtractStepCounting)
{
    BitWriter bw;
    bw.write(1, 5);
    bw.write(2, 7);
    BitReader br(bw.bytes(), bw.bitSize());
    br.read(5);
    br.read(7);
    EXPECT_EQ(br.extractSteps(), 2u);
    br.resetSteps();
    EXPECT_EQ(br.extractSteps(), 0u);
}

/** Round-trip random field sequences at every width. */
class BitStreamWidth : public ::testing::TestWithParam<unsigned>
{};

TEST_P(BitStreamWidth, RoundTripRandomValues)
{
    unsigned width = GetParam();
    Rng rng(width * 977 + 1);
    std::vector<uint64_t> values;
    BitWriter bw;
    for (int i = 0; i < 200; ++i) {
        uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
        uint64_t v = rng.next() & mask;
        values.push_back(v);
        bw.write(v, width);
    }
    EXPECT_EQ(bw.bitSize(), 200u * width);
    BitReader br(bw.bytes(), bw.bitSize());
    for (uint64_t v : values)
        EXPECT_EQ(br.read(width), v);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitStreamWidth,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 9u,
                                           13u, 16u, 17u, 23u, 31u, 32u,
                                           33u, 47u, 63u, 64u));

TEST(BitStream, MixedWidthRoundTrip)
{
    Rng rng(11);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    BitWriter bw;
    for (int i = 0; i < 500; ++i) {
        unsigned width = 1 + static_cast<unsigned>(rng.below(64));
        uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
        uint64_t v = rng.next() & mask;
        fields.emplace_back(v, width);
        bw.write(v, width);
    }
    BitReader br(bw.bytes(), bw.bitSize());
    for (auto [v, width] : fields)
        EXPECT_EQ(br.read(width), v);
}

// ---- zigzag ----------------------------------------------------------------

class ZigZag : public ::testing::TestWithParam<int64_t>
{};

TEST_P(ZigZag, RoundTrip)
{
    int64_t v = GetParam();
    EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
}

INSTANTIATE_TEST_SUITE_P(Values, ZigZag,
                         ::testing::Values(0ll, 1ll, -1ll, 2ll, -2ll,
                                           100ll, -100ll, INT64_MAX,
                                           INT64_MIN, 123456789ll,
                                           -987654321ll));

TEST(ZigZag, SmallMagnitudesGetSmallCodes)
{
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
    EXPECT_EQ(zigzagEncode(2), 4u);
}

TEST(BitsFor, Boundaries)
{
    EXPECT_EQ(bitsFor(0), 1u);
    EXPECT_EQ(bitsFor(1), 1u);
    EXPECT_EQ(bitsFor(2), 2u);
    EXPECT_EQ(bitsFor(3), 2u);
    EXPECT_EQ(bitsFor(4), 3u);
    EXPECT_EQ(bitsFor(255), 8u);
    EXPECT_EQ(bitsFor(256), 9u);
    EXPECT_EQ(bitsFor(~0ull), 64u);
}

// ---- Huffman ---------------------------------------------------------------

std::vector<uint64_t>
randomFreqs(size_t n, uint64_t seed, bool skewed)
{
    Rng rng(seed);
    std::vector<uint64_t> freqs(n);
    for (size_t i = 0; i < n; ++i) {
        freqs[i] = skewed ? (i < n / 8 + 1 ? 1000 + rng.below(1000) :
                             rng.below(3)) :
            rng.below(100);
    }
    return freqs;
}

/**
 * The Huffman construction as it was first written, kept as the
 * reference the library is tested against: lengths from a binary heap
 * keyed (weight, node index), canonical codes from a stable sort, an
 * explicit decode tree and a bit-at-a-time writer and tree walker.
 */
class TreeReference
{
  public:
    /** Plain Huffman lengths through a min-heap. */
    static std::vector<unsigned>
    heapLengths(const std::vector<uint64_t> &freqs)
    {
        const size_t n = freqs.size();
        if (n == 1)
            return {1};
        using Item = std::pair<uint64_t, size_t>; // (weight, node)
        std::priority_queue<Item, std::vector<Item>, std::greater<Item>>
            heap;
        std::vector<int> parent(n, -1);
        for (size_t i = 0; i < n; ++i)
            heap.push({std::max<uint64_t>(freqs[i], 1), i});
        while (heap.size() > 1) {
            Item a = heap.top();
            heap.pop();
            Item b = heap.top();
            heap.pop();
            const size_t p = parent.size();
            parent.push_back(-1);
            parent[a.second] = static_cast<int>(p);
            parent[b.second] = static_cast<int>(p);
            heap.push({a.first + b.first, p});
        }
        std::vector<unsigned> lengths(n, 0);
        for (size_t i = 0; i < n; ++i)
            for (int v = parent[i]; v != -1; v = parent[v])
                ++lengths[i];
        return lengths;
    }

    explicit TreeReference(const std::vector<unsigned> &lengths)
        : lengths(lengths), codes(lengths.size())
    {
        std::vector<size_t> order(lengths.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return lengths[a] < lengths[b];
                         });
        uint64_t code = 0;
        unsigned prev = lengths[order[0]];
        for (size_t sym : order) {
            code <<= lengths[sym] - prev;
            codes[sym] = code++;
            prev = lengths[sym];
        }
        tree.push_back(Node{});
        for (size_t sym = 0; sym < lengths.size(); ++sym) {
            int node = 0;
            for (unsigned i = lengths[sym]; i-- > 0;) {
                const int bit = static_cast<int>((codes[sym] >> i) & 1);
                if (tree[node].child[bit] == -1) {
                    tree[node].child[bit] = static_cast<int>(tree.size());
                    tree.push_back(Node{});
                }
                node = tree[node].child[bit];
            }
            tree[node].symbol = static_cast<int64_t>(sym);
        }
    }

    /** Append @p sym's codeword one bit at a time. */
    void
    encode(std::vector<uint8_t> &bytes, size_t &bits, uint64_t sym) const
    {
        for (unsigned i = lengths[sym]; i-- > 0; ++bits) {
            if (bits % 8 == 0)
                bytes.push_back(0);
            if ((codes[sym] >> i) & 1)
                bytes.back() |= static_cast<uint8_t>(0x80 >> (bits % 8));
        }
    }

    /** Walk the tree one bit per edge. */
    uint64_t
    decodeTree(BitReader &br, uint64_t *steps) const
    {
        int node = 0;
        while (tree[node].symbol == -1) {
            node = tree[node].child[br.readBit() ? 1 : 0];
            if (node == -1)
                throw std::runtime_error("decode fell off the tree");
            ++*steps;
        }
        return static_cast<uint64_t>(tree[node].symbol);
    }

    struct Node
    {
        int child[2] = {-1, -1};
        int64_t symbol = -1;
    };
    std::vector<unsigned> lengths;
    std::vector<uint64_t> codes;
    std::vector<Node> tree;
};

class HuffmanAlphabet : public ::testing::TestWithParam<size_t>
{};

TEST_P(HuffmanAlphabet, RoundTripAllSymbols)
{
    size_t n = GetParam();
    auto freqs = randomFreqs(n, n * 31 + 7, true);
    HuffmanCode hc = HuffmanCode::build(freqs);

    BitWriter bw;
    for (size_t s = 0; s < n; ++s)
        hc.encode(bw, s);
    BitReader br(bw.bytes(), bw.bitSize());
    for (size_t s = 0; s < n; ++s)
        EXPECT_EQ(hc.decode(br), s);
    EXPECT_TRUE(br.atEnd());
}

TEST_P(HuffmanAlphabet, WithinOneBitOfEntropy)
{
    size_t n = GetParam();
    if (n < 2)
        GTEST_SKIP() << "entropy bound trivial for one symbol";
    auto freqs = randomFreqs(n, n * 13 + 3, false);
    for (auto &f : freqs)
        f += 1; // all symbols occur
    HuffmanCode hc = HuffmanCode::build(freqs);
    double h = entropyBits(freqs);
    double l = hc.expectedLength(freqs);
    EXPECT_GE(l + 1e-9, h);
    EXPECT_LE(l, h + 1.0);
}

TEST_P(HuffmanAlphabet, KraftEqualityHolds)
{
    size_t n = GetParam();
    if (n < 2)
        GTEST_SKIP() << "a one-symbol code cannot saturate Kraft";
    auto freqs = randomFreqs(n, n * 17 + 5, true);
    HuffmanCode hc = HuffmanCode::build(freqs);
    long double kraft = 0.0;
    for (size_t s = 0; s < n; ++s)
        kraft += std::pow(2.0L, -static_cast<long double>(hc.lengthOf(s)));
    EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HuffmanAlphabet,
                         ::testing::Values(1u, 2u, 3u, 5u, 17u, 38u, 64u,
                                           129u, 300u));

TEST(Huffman, SingleSymbolGetsOneBit)
{
    HuffmanCode hc = HuffmanCode::build({42});
    EXPECT_EQ(hc.lengthOf(0), 1u);
    BitWriter bw;
    hc.encode(bw, 0);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(hc.decode(br), 0u);
}

TEST(Huffman, FrequentSymbolNotLongerThanRareOne)
{
    std::vector<uint64_t> freqs = {1000, 1, 1, 1, 1, 1, 1, 1};
    HuffmanCode hc = HuffmanCode::build(freqs);
    for (size_t s = 1; s < freqs.size(); ++s)
        EXPECT_LE(hc.lengthOf(0), hc.lengthOf(s));
}

TEST(Huffman, ZeroFrequencySymbolsStillCodeable)
{
    std::vector<uint64_t> freqs = {100, 0, 0, 50};
    HuffmanCode hc = HuffmanCode::build(freqs);
    BitWriter bw;
    hc.encode(bw, 1);
    hc.encode(bw, 2);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(hc.decode(br), 1u);
    EXPECT_EQ(hc.decode(br), 2u);
}

TEST(Huffman, DecodeStepsEqualCodeLength)
{
    auto freqs = randomFreqs(20, 99, true);
    HuffmanCode hc = HuffmanCode::build(freqs);
    for (size_t s = 0; s < freqs.size(); ++s) {
        BitWriter bw;
        hc.encode(bw, s);
        BitReader br(bw.bytes(), bw.bitSize());
        uint64_t steps = 0;
        hc.decode(br, &steps);
        EXPECT_EQ(steps, hc.lengthOf(s));
    }
}

class HuffmanLengthLimit : public ::testing::TestWithParam<unsigned>
{};

TEST_P(HuffmanLengthLimit, RespectsLimitAndStaysPrefixFree)
{
    unsigned max_len = GetParam();
    // Heavily skewed frequencies force long tails without a limit.
    std::vector<uint64_t> freqs;
    uint64_t f = 1;
    for (int i = 0; i < 20; ++i) {
        freqs.push_back(f);
        f = f * 2 + 1;
    }
    HuffmanCode hc = HuffmanCode::build(freqs, max_len);
    for (size_t s = 0; s < freqs.size(); ++s)
        EXPECT_LE(hc.lengthOf(s), max_len);
    // Round trip.
    BitWriter bw;
    for (size_t s = 0; s < freqs.size(); ++s)
        hc.encode(bw, s);
    BitReader br(bw.bytes(), bw.bitSize());
    for (size_t s = 0; s < freqs.size(); ++s)
        EXPECT_EQ(hc.decode(br), s);
}

INSTANTIATE_TEST_SUITE_P(Limits, HuffmanLengthLimit,
                         ::testing::Values(5u, 6u, 8u, 12u, 16u));

TEST(Huffman, LengthLimitedNoWorseThanNecessary)
{
    // With a generous limit, package-merge matches plain Huffman cost.
    auto freqs = randomFreqs(40, 5, false);
    for (auto &f : freqs)
        f += 1;
    HuffmanCode plain = HuffmanCode::build(freqs);
    HuffmanCode limited = HuffmanCode::build(freqs, 32);
    EXPECT_NEAR(plain.expectedLength(freqs),
                limited.expectedLength(freqs), 1e-9);
}

TEST(Huffman, QuantizedLengthsFromAllowedSet)
{
    auto freqs = randomFreqs(30, 77, true);
    std::vector<unsigned> allowed = {2, 4, 7, 10};
    HuffmanCode hc = HuffmanCode::buildQuantized(freqs, allowed);
    for (size_t s = 0; s < freqs.size(); ++s) {
        unsigned len = hc.lengthOf(s);
        EXPECT_TRUE(std::find(allowed.begin(), allowed.end(), len) !=
                    allowed.end())
            << "symbol " << s << " has disallowed length " << len;
    }
    // Round trip.
    BitWriter bw;
    for (size_t s = 0; s < freqs.size(); ++s)
        hc.encode(bw, s);
    BitReader br(bw.bytes(), bw.bitSize());
    for (size_t s = 0; s < freqs.size(); ++s)
        EXPECT_EQ(hc.decode(br), s);
}

TEST(Huffman, QuantizedCostBetweenOptimalAndWorstAllowed)
{
    auto freqs = randomFreqs(25, 123, true);
    std::vector<unsigned> allowed = {3, 5, 8, 12};
    HuffmanCode quantized = HuffmanCode::buildQuantized(freqs, allowed);
    HuffmanCode optimal = HuffmanCode::build(freqs, 12);
    EXPECT_GE(quantized.expectedLength(freqs) + 1e-9,
              optimal.expectedLength(freqs));
    EXPECT_LE(quantized.expectedLength(freqs), 12.0);
}

/**
 * Exhaustively verify package-merge optimality for tiny alphabets:
 * no prefix-feasible length assignment under the limit beats it.
 */
class PackageMergeOptimality
    : public ::testing::TestWithParam<std::tuple<size_t, unsigned>>
{};

TEST_P(PackageMergeOptimality, MatchesBruteForce)
{
    auto [n, max_len] = GetParam();
    auto freqs = randomFreqs(n, n * 7 + max_len, true);
    for (auto &f : freqs)
        f += 1;
    HuffmanCode hc = HuffmanCode::build(freqs, max_len);

    uint64_t pm_cost = 0;
    for (size_t s = 0; s < n; ++s)
        pm_cost += freqs[s] * hc.lengthOf(s);

    // Brute force over all length vectors in [1, max_len]^n that
    // satisfy Kraft.
    std::vector<unsigned> lens(n, 1);
    uint64_t best = UINT64_MAX;
    for (;;) {
        double kraft = 0;
        uint64_t cost = 0;
        for (size_t s = 0; s < n; ++s) {
            kraft += std::pow(2.0, -static_cast<double>(lens[s]));
            cost += freqs[s] * lens[s];
        }
        if (kraft <= 1.0 + 1e-12)
            best = std::min(best, cost);
        // Odometer increment.
        size_t i = 0;
        while (i < n && ++lens[i] > max_len) {
            lens[i] = 1;
            ++i;
        }
        if (i == n)
            break;
    }
    EXPECT_EQ(pm_cost, best);
}

INSTANTIATE_TEST_SUITE_P(
    TinyAlphabets, PackageMergeOptimality,
    ::testing::Values(std::make_tuple(size_t{2}, 2u),
                      std::make_tuple(size_t{3}, 2u),
                      std::make_tuple(size_t{4}, 3u),
                      std::make_tuple(size_t{5}, 3u),
                      std::make_tuple(size_t{5}, 4u),
                      std::make_tuple(size_t{6}, 3u)));

/**
 * The table decoder, decode(), is bit-exact with the reference tree
 * walk: same symbols, same tree-edge counts and same
 * cursor after every symbol, at every bit alignment. The codes cover
 * an unrestricted build, codewords far past the 11-bit root window,
 * two length limits (one within the root window), B1700-style
 * quantized lengths up to 12 bits (the longest decode through an
 * overflow subtable, as in quantized images) and a one-symbol
 * alphabet.
 */
TEST(Huffman, TableDecodeMatchesTreeWalk)
{
    std::vector<uint64_t> doubling(24);
    for (size_t i = 0; i < doubling.size(); ++i)
        doubling[i] = uint64_t{1} << i;
    const std::vector<std::pair<const char *, HuffmanCode>> codes = {
        {"unrestricted", HuffmanCode::build(randomFreqs(300, 41, true))},
        {"doubling", HuffmanCode::build(doubling)},
        {"limit16", HuffmanCode::build(randomFreqs(500, 43, true), 16)},
        {"limit8", HuffmanCode::build(randomFreqs(40, 47, false), 8)},
        {"quantized",
         HuffmanCode::buildQuantized(randomFreqs(300, 53, true),
                                     {2, 4, 6, 8, 12})},
        {"one-symbol", HuffmanCode::build({5})},
    };
    EXPECT_EQ(codes[1].second.maxCodeLength(), 23u);
    EXPECT_EQ(codes[4].second.maxCodeLength(), 12u);

    Rng rng(2201);
    for (const auto &[name, hc] : codes) {
        const TreeReference ref(hc.lengths());
        for (int trial = 0; trial < 16; ++trial) {
            // Random padding puts the stream at every alignment.
            unsigned pad = static_cast<unsigned>(rng.below(64));
            BitWriter bw;
            bw.write(rng.next() & ((uint64_t{1} << pad) - 1), pad);
            std::vector<uint64_t> symbols(200);
            for (uint64_t &sym : symbols) {
                sym = rng.below(hc.alphabetSize());
                hc.encode(bw, sym);
            }

            BitReader table(bw.bytes(), bw.bitSize());
            BitReader tree(bw.bytes(), bw.bitSize());
            table.seek(pad);
            tree.seek(pad);
            uint64_t table_steps = 0, tree_steps = 0;
            for (size_t i = 0; i < symbols.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << name << " trial " << trial << " pad "
                             << pad << " symbol " << i);
                ASSERT_EQ(hc.decode(table, &table_steps), symbols[i]);
                ASSERT_EQ(ref.decodeTree(tree, &tree_steps), symbols[i]);
                ASSERT_EQ(table_steps, tree_steps);
                ASSERT_EQ(table.pos(), tree.pos());
            }
            EXPECT_TRUE(table.atEnd());
        }
    }
}

/**
 * The library's construction — two-queue lengths, counting-sort
 * canonical codes, a tree counted rather than built, a field-at-a-time
 * writer — is identical to the tree reference on seeded random
 * frequency vectors: same lengths, codes, decodeTreeNodes() and encoded
 * bytes, and the lookup tables decode every stream as the tree does.
 * The vectors cover plain Huffman (ties, zeros, one symbol, long
 * tails), package-merge limits and quantized codes.
 */
TEST(Huffman, MatchesTheTreeReference)
{
    Rng rng(1978);
    for (int trial = 0; trial < 120; ++trial) {
        const size_t n = trial < 4 ? trial + 1 : 1 + rng.below(400);
        std::vector<uint64_t> freqs(n);
        const int shape = trial % 4;
        for (size_t i = 0; i < n; ++i) {
            freqs[i] = shape == 0 ? rng.below(4) :               // ties
                shape == 1 ? rng.below(100000) :                  // wide
                shape == 2 ? (uint64_t{1} << rng.below(16)) :     // tails
                (i % 7 == 0 ? 0 : 1 + rng.below(10));             // zeros
        }
        const unsigned limit = 9 + static_cast<unsigned>(rng.below(8));
        const std::vector<std::pair<const char *, HuffmanCode>> codes = {
            {"plain", HuffmanCode::build(freqs)},
            {"limited", HuffmanCode::build(freqs, limit)},
            {"quantized",
             HuffmanCode::buildQuantized(freqs, {2, 5, 9, limit})},
        };
        EXPECT_EQ(codes[0].second.lengths(),
                  TreeReference::heapLengths(freqs))
            << "trial " << trial;
        for (const auto &[name, hc] : codes) {
            SCOPED_TRACE(::testing::Message()
                         << name << " trial " << trial << " n " << n);
            const TreeReference ref(hc.lengths());
            for (size_t sym = 0; sym < n; ++sym)
                ASSERT_EQ(hc.codeOf(sym), ref.codes[sym]) << sym;
            EXPECT_EQ(hc.decodeTreeNodes(), ref.tree.size());

            std::vector<uint64_t> symbols(300);
            BitWriter bw;
            std::vector<uint8_t> ref_bytes;
            size_t ref_bits = 0;
            for (uint64_t &sym : symbols) {
                sym = rng.below(n);
                hc.encode(bw, sym);
                ref.encode(ref_bytes, ref_bits, sym);
            }
            ASSERT_EQ(bw.bitSize(), ref_bits);
            ASSERT_EQ(bw.bytes(), ref_bytes);

            BitReader table(bw.bytes(), bw.bitSize());
            BitReader tree(bw.bytes(), bw.bitSize());
            uint64_t table_steps = 0, tree_steps = 0;
            for (uint64_t sym : symbols) {
                ASSERT_EQ(hc.decode(table, &table_steps), sym);
                ASSERT_EQ(ref.decodeTree(tree, &tree_steps), sym);
                ASSERT_EQ(table.pos(), tree.pos());
            }
            EXPECT_EQ(table_steps, tree_steps);
        }
    }
}

/** Writing fields of every width at every alignment matches a
 *  bit-at-a-time writer. */
TEST(BitStream, FieldWriterMatchesBitWriter)
{
    Rng rng(77);
    BitWriter bw;
    std::vector<uint8_t> ref;
    size_t bits = 0;
    for (int i = 0; i < 2000; ++i) {
        const unsigned width = static_cast<unsigned>(rng.below(65));
        const uint64_t value = width == 64 ? rng.next() :
            rng.next() & ((uint64_t{1} << width) - 1);
        bw.write(value, width);
        for (unsigned b = width; b-- > 0; ++bits) {
            if (bits % 8 == 0)
                ref.push_back(0);
            if ((value >> b) & 1)
                ref.back() |= static_cast<uint8_t>(0x80 >> (bits % 8));
        }
    }
    EXPECT_EQ(bw.bitSize(), bits);
    EXPECT_EQ(bw.bytes(), ref);
}

TEST(Huffman, DecodeTreeNodesGrowWithAlphabet)
{
    HuffmanCode small = HuffmanCode::build(randomFreqs(4, 1, false));
    HuffmanCode large = HuffmanCode::build(randomFreqs(200, 1, false));
    EXPECT_LT(small.decodeTreeNodes(), large.decodeTreeNodes());
}

/**
 * Rare symbols ~40 bits deep would need overflow subtables of up to
 * 2^29 slots each; building such a code is refused before any of the
 * table is allocated.
 */
TEST(Huffman, DecodeTableOverTheLimitIsRefused)
{
    std::vector<uint64_t> freqs(400);
    for (size_t i = 0; i < freqs.size(); ++i)
        freqs[i] = uint64_t{1} << (i / 10); // 2^0 .. 2^39
    EXPECT_THROW(HuffmanCode::build(freqs), FatalError);

    // Limited to 20 bits, the same alphabet fits.
    EXPECT_NO_THROW(HuffmanCode::build(freqs, 20));
}

TEST(Entropy, UniformAndDegenerate)
{
    EXPECT_NEAR(entropyBits({1, 1, 1, 1}), 2.0, 1e-12);
    EXPECT_NEAR(entropyBits({5, 0, 0, 0}), 0.0, 1e-12);
    EXPECT_NEAR(entropyBits({}), 0.0, 1e-12);
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(5), b(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(5), b(6);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(10);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---- wrap ------------------------------------------------------------------

TEST(Wrap, AdditionWraps)
{
    EXPECT_EQ(wrapAdd(INT64_MAX, 1), INT64_MIN);
    EXPECT_EQ(wrapSub(INT64_MIN, 1), INT64_MAX);
    EXPECT_EQ(wrapNeg(INT64_MIN), INT64_MIN);
}

TEST(Wrap, MultiplicationWraps)
{
    EXPECT_EQ(wrapMul(1ll << 32, 1ll << 32), 0);
    EXPECT_EQ(wrapMul(3, 4), 12);
}

TEST(Wrap, DivisionEdgeCases)
{
    EXPECT_EQ(wrapDiv(INT64_MIN, -1), INT64_MIN);
    EXPECT_EQ(wrapMod(INT64_MIN, -1), 0);
    EXPECT_EQ(wrapDiv(7, -2), -3);
    EXPECT_EQ(wrapMod(7, -2), 1);
}

TEST(Wrap, Shifts)
{
    EXPECT_EQ(wrapShl(1, 63), INT64_MIN);
    EXPECT_EQ(wrapShr(-8, 1), -4);
    EXPECT_EQ(wrapShl(1, 64), 1); // shift masked to 0
}

// ---- table -----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(uint64_t{42}), "42");
    EXPECT_EQ(TextTable::num(int64_t{-7}), "-7");
}

// ---- json ------------------------------------------------------------------

TEST(Json, ObjectsArraysAndScalars)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("name").value("uhm");
    jw.key("count").value(uint64_t{42});
    jw.key("ratio").value(0.5);
    jw.key("ok").value(true);
    jw.key("list").beginArray().value(1).value(2).value(3).endArray();
    jw.key("nested").beginObject().key("x").value(-7).endObject();
    jw.endObject();
    EXPECT_EQ(jw.str(),
              "{\"name\":\"uhm\",\"count\":42,\"ratio\":0.5,"
              "\"ok\":true,\"list\":[1,2,3],\"nested\":{\"x\":-7}}");
}

TEST(Json, StringEscaping)
{
    JsonWriter jw;
    jw.beginArray();
    jw.value("a\"b\\c\nd\te");
    jw.endArray();
    EXPECT_EQ(jw.str(), "[\"a\\\"b\\\\c\\nd\\te\"]");
}

TEST(Json, EmptyContainers)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("arr").beginArray().endArray();
    jw.key("obj").beginObject().endObject();
    jw.endObject();
    EXPECT_EQ(jw.str(), "{\"arr\":[],\"obj\":{}}");
}

} // anonymous namespace
} // namespace uhm
