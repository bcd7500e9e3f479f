#include "support/huffman.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>

#include "support/logging.hh"

namespace uhm
{

namespace
{

/**
 * Plain Huffman code lengths via the two-queue construction: the
 * leaves sorted by (weight, symbol) form one queue, and the merged
 * nodes, created in nondecreasing weight order, form the other. Each
 * merge takes the two smallest fronts by (weight, node index), where
 * a merged node's index follows every leaf's, so ties resolve exactly
 * as a min-heap keyed that way would. Frequencies of zero are bumped
 * to one so every symbol is codeable.
 */
std::vector<unsigned>
huffmanLengths(const std::vector<uint64_t> &freqs)
{
    size_t n = freqs.size();
    if (n == 1)
        return {1};

    struct Node
    {
        uint64_t weight;
        /** Leaf symbol, or n + k for the k-th merged node. */
        uint32_t id;
    };
    // [0, n): the leaf queue, sorted; [n, 2n-1): merged nodes in
    // creation order. parent[] is indexed by node id.
    std::vector<Node> nodes(2 * n - 1);
    std::vector<uint32_t> parent(2 * n - 1);
    for (size_t i = 0; i < n; ++i)
        nodes[i] = {std::max<uint64_t>(freqs[i], 1),
                    static_cast<uint32_t>(i)};
    std::sort(nodes.begin(), nodes.begin() + n,
              [](const Node &a, const Node &b) {
                  return a.weight != b.weight ? a.weight < b.weight :
                      a.id < b.id;
              });

    size_t leaf = 0, merged = n, made = n;
    auto take = [&]() -> const Node & {
        // Leaf ids are below every merged id: a leaf wins a weight tie.
        if (merged == made ||
            (leaf < n && nodes[leaf].weight <= nodes[merged].weight))
            return nodes[leaf++];
        return nodes[merged++];
    };
    while (made < 2 * n - 1) {
        const Node &a = take();
        const Node &b = take();
        const uint32_t id = static_cast<uint32_t>(made);
        parent[a.id] = id;
        parent[b.id] = id;
        nodes[made++] = {a.weight + b.weight, id};
    }

    // Depths from the root (the last node made) down, overwriting each
    // merged node's parent link: a parent was made after its children,
    // so its slot already holds its depth.
    parent[2 * n - 2] = 0;
    for (size_t id = 2 * n - 2; id-- > n;)
        parent[id] = parent[parent[id]] + 1;
    std::vector<unsigned> lengths(n);
    for (size_t i = 0; i < n; ++i)
        lengths[i] = parent[parent[i]] + 1;
    return lengths;
}

/**
 * Length-limited code lengths via the package-merge algorithm
 * (Larmore & Hirschberg). Produces optimal lengths subject to
 * lengths[i] <= max_len.
 */
std::vector<unsigned>
packageMergeLengths(const std::vector<uint64_t> &freqs, unsigned max_len)
{
    size_t n = freqs.size();
    uhm_assert(n >= 1, "empty alphabet");
    uhm_assert((1ull << max_len) >= n,
               "max_len %u cannot code %zu symbols", max_len, n);
    if (n == 1)
        return {1};

    struct Item
    {
        uint64_t weight;
        /** Leaf symbols covered by this package (by index). */
        std::vector<uint32_t> leaves;
    };

    // Leaves sorted by weight, stable on symbol index.
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         uint64_t fa = std::max<uint64_t>(freqs[a], 1);
                         uint64_t fb = std::max<uint64_t>(freqs[b], 1);
                         return fa != fb ? fa < fb : a < b;
                     });

    std::vector<Item> prev;
    std::vector<unsigned> lengths(n, 0);

    for (unsigned level = 0; level < max_len; ++level) {
        // Package pairs from the previous level.
        std::vector<Item> packages;
        for (size_t i = 0; i + 1 < prev.size(); i += 2) {
            Item pkg;
            pkg.weight = prev[i].weight + prev[i + 1].weight;
            pkg.leaves = prev[i].leaves;
            pkg.leaves.insert(pkg.leaves.end(), prev[i + 1].leaves.begin(),
                              prev[i + 1].leaves.end());
            packages.push_back(std::move(pkg));
        }
        // Merge with the fresh leaf list.
        std::vector<Item> merged;
        size_t pi = 0, li = 0;
        while (pi < packages.size() || li < n) {
            uint64_t lw = li < n ?
                std::max<uint64_t>(freqs[order[li]], 1) : UINT64_MAX;
            if (pi < packages.size() && packages[pi].weight <= lw) {
                merged.push_back(std::move(packages[pi++]));
            } else {
                merged.push_back({lw, {order[li]}});
                ++li;
            }
        }
        prev = std::move(merged);
    }

    // Take the cheapest 2n-2 items; each appearance of a leaf adds one
    // bit to its codeword length.
    size_t take = 2 * n - 2;
    uhm_assert(prev.size() >= take, "package-merge underflow");
    for (size_t i = 0; i < take; ++i)
        for (uint32_t leaf : prev[i].leaves)
            ++lengths[leaf];
    return lengths;
}

/** Kraft sum scaled by 2^scale_len to stay in integers. */
uint64_t
kraftScaled(const std::vector<unsigned> &lengths, unsigned scale_len)
{
    uint64_t sum = 0;
    for (unsigned len : lengths) {
        uhm_assert(len >= 1 && len <= scale_len, "bad length %u", len);
        sum += 1ull << (scale_len - len);
    }
    return sum;
}

} // anonymous namespace

HuffmanCode
HuffmanCode::fromLengths(std::vector<unsigned> lengths)
{
    HuffmanCode hc;
    hc.lengths_ = std::move(lengths);
    const size_t n = hc.lengths_.size();
    hc.codes_.resize(n);

    // Canonical order: shorter codes first, symbol order within a
    // length (a counting sort over the lengths).
    std::array<uint32_t, 66> first{};
    for (unsigned len : hc.lengths_) {
        uhm_assert(len >= 1 && len <= 64, "bad code length %u", len);
        ++first[len + 1];
    }
    for (size_t len = 1; len < first.size(); ++len)
        first[len] += first[len - 1];
    std::vector<uint32_t> order(n);
    for (size_t sym = 0; sym < n; ++sym)
        order[first[hc.lengths_[sym]]++] = static_cast<uint32_t>(sym);

    // Canonical codes, in that order. The order is also the decode
    // tree's left-to-right leaf order, so each codeword adds one tree
    // node per bit past its longest common prefix with the previous
    // codeword; the root is the one node no codeword adds.
    hc.treeNodes_ = 1;
    uint64_t code = 0;
    unsigned last_len = hc.lengths_[order[0]];
    for (size_t i = 0; i < n; ++i) {
        const uint32_t sym = order[i];
        const unsigned len = hc.lengths_[sym];
        uhm_assert(last_len == 64 || (code >> last_len) == 0,
                   "lengths overfill the code space at symbol %u", sym);
        // code is the previous codeword plus one: the bits the
        // increment changed are where this codeword leaves its path.
        const unsigned common = i == 0 ? 0 :
            last_len - static_cast<unsigned>(
                           std::bit_width(code ^ (code - 1)));
        code <<= len - last_len;
        hc.treeNodes_ += len - common;
        hc.codes_[sym] = code++;
        last_len = len;
    }

    hc.buildDecodeTable(order);
    return hc;
}

void
HuffmanCode::buildDecodeTable(const std::vector<uint32_t> &order)
{
    maxLen_ = lengths_[order.back()];
    uhm_assert(maxLen_ >= 1 && maxLen_ <= 64, "bad max length %u",
               maxLen_);
    uhm_assert(lengths_.size() <= slotPayloadMax,
               "alphabet of %zu symbols overflows a packed slot",
               lengths_.size());
    rootBits_ = std::min(maxLen_, maxRootBits);

    root_.assign(size_t{1} << rootBits_, 0);
    overflow_.clear();

    // Terminal root slots: a codeword of length <= rootBits_ owns every
    // slot whose leading bits equal it.
    for (size_t sym = 0; sym < lengths_.size(); ++sym) {
        unsigned len = lengths_[sym];
        if (len > rootBits_)
            continue;
        uint64_t first = codes_[sym] << (rootBits_ - len);
        uint64_t count = uint64_t{1} << (rootBits_ - len);
        uint32_t slot =
            (static_cast<uint32_t>(sym) << slotPayloadShift) | len;
        for (uint64_t i = 0; i < count; ++i) {
            uhm_assert(root_[first + i] == 0,
                       "table slot clash at symbol %zu", sym);
            root_[first + i] = slot;
        }
    }

    // Long codewords overflow into a subtable per distinct root-width
    // prefix, indexed by the bits beyond the root window. Symbols are
    // visited in canonical (length-major) order, so all codewords of
    // one prefix are contiguous; a single pass sizing each subtable by
    // its longest member suffices.

    // Pass 1: widest suffix per prefix.
    std::vector<std::pair<uint64_t, unsigned>> prefixWidth;
    for (uint32_t sym : order) {
        unsigned len = lengths_[sym];
        if (len <= rootBits_)
            continue;
        uint64_t prefix = codes_[sym] >> (len - rootBits_);
        unsigned suffix = len - rootBits_;
        if (!prefixWidth.empty() && prefixWidth.back().first == prefix) {
            prefixWidth.back().second =
                std::max(prefixWidth.back().second, suffix);
        } else {
            prefixWidth.emplace_back(prefix, suffix);
        }
    }

    // Size the whole table before allocating any of it. Every term is
    // at most 2^53 slots and the sum stops at the limit, so it cannot
    // overflow.
    uint64_t slots = root_.size();
    for (const auto &[prefix, width] : prefixWidth) {
        slots += uint64_t{1} << width;
        if (slots * sizeof(uint32_t) > maxDecodeTableBytes)
            fatal("Huffman code with a %u-bit codeword needs a decode "
                  "table over the %llu-byte limit",
                  maxLen_,
                  static_cast<unsigned long long>(maxDecodeTableBytes));
    }

    // Pass 2: allocate the subtables and point the root at them.
    for (const auto &[prefix, width] : prefixWidth) {
        uhm_assert(root_[prefix] == 0, "prefix clash in overflow table");
        uhm_assert(overflow_.size() <= slotPayloadMax,
                   "overflow table exceeds a packed slot's base range");
        root_[prefix] = slotOverflow |
            (static_cast<uint32_t>(overflow_.size())
             << slotPayloadShift) | width;
        overflow_.resize(overflow_.size() + (size_t{1} << width));
    }

    // Pass 3: fill the subtable spans.
    for (uint32_t sym : order) {
        unsigned len = lengths_[sym];
        if (len <= rootBits_)
            continue;
        uint64_t prefix = codes_[sym] >> (len - rootBits_);
        unsigned suffix = len - rootBits_;
        uint32_t rootSlot = root_[prefix];
        unsigned width = rootSlot & slotLenMask;
        uint32_t base = rootSlot >> slotPayloadShift;
        uint64_t low = codes_[sym] & ((uint64_t{1} << suffix) - 1);
        uint64_t first = low << (width - suffix);
        uint64_t count = uint64_t{1} << (width - suffix);
        uint32_t slot =
            (static_cast<uint32_t>(sym) << slotPayloadShift) | len;
        for (uint64_t i = 0; i < count; ++i) {
            uhm_assert(overflow_[base + first + i] == 0,
                       "overflow slot clash at symbol %u", sym);
            overflow_[base + first + i] = slot;
        }
    }
}

HuffmanCode
HuffmanCode::build(const std::vector<uint64_t> &freqs, unsigned max_len)
{
    uhm_assert(!freqs.empty(), "empty alphabet");
    std::vector<unsigned> lengths = max_len == 0 ?
        huffmanLengths(freqs) : packageMergeLengths(freqs, max_len);
    return fromLengths(std::move(lengths));
}

HuffmanCode
HuffmanCode::buildQuantized(const std::vector<uint64_t> &freqs,
                            const std::vector<unsigned> &allowed_lens)
{
    uhm_assert(!allowed_lens.empty(), "no allowed lengths");
    std::vector<unsigned> allowed = allowed_lens;
    std::sort(allowed.begin(), allowed.end());
    unsigned max_len = allowed.back();
    uhm_assert((1ull << max_len) >= freqs.size(),
               "allowed lengths cannot code %zu symbols", freqs.size());

    // Start from optimal length-limited lengths, then round each length
    // *up* to the nearest allowed value. Rounding up only shrinks the
    // Kraft sum, so the result stays prefix-feasible.
    std::vector<unsigned> lengths = packageMergeLengths(freqs, max_len);
    for (unsigned &len : lengths) {
        auto it = std::lower_bound(allowed.begin(), allowed.end(), len);
        uhm_assert(it != allowed.end(), "length %u unroundable", len);
        len = *it;
    }

    // Greedily shorten the most frequent symbols to the next smaller
    // allowed length while the Kraft inequality still holds.
    std::vector<uint32_t> by_freq(freqs.size());
    std::iota(by_freq.begin(), by_freq.end(), 0);
    std::stable_sort(by_freq.begin(), by_freq.end(),
                     [&](uint32_t a, uint32_t b) {
                         return freqs[a] != freqs[b] ?
                             freqs[a] > freqs[b] : a < b;
                     });
    uint64_t budget = 1ull << max_len;
    uint64_t kraft = kraftScaled(lengths, max_len);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t sym : by_freq) {
            auto it = std::lower_bound(allowed.begin(), allowed.end(),
                                       lengths[sym]);
            if (it == allowed.begin())
                continue;
            unsigned shorter = *std::prev(it);
            uint64_t delta = (1ull << (max_len - shorter)) -
                             (1ull << (max_len - lengths[sym]));
            if (kraft + delta <= budget) {
                kraft += delta;
                lengths[sym] = shorter;
                changed = true;
            }
        }
    }

    return fromLengths(std::move(lengths));
}

void
HuffmanCode::encode(BitWriter &bw, uint64_t symbol) const
{
    uhm_assert(symbol < lengths_.size(), "symbol %llu out of alphabet",
               static_cast<unsigned long long>(symbol));
    bw.write(codes_[symbol], lengths_[symbol]);
}

unsigned
HuffmanCode::lengthOf(uint64_t symbol) const
{
    uhm_assert(symbol < lengths_.size(), "symbol %llu out of alphabet",
               static_cast<unsigned long long>(symbol));
    return lengths_[symbol];
}

double
HuffmanCode::expectedLength(const std::vector<uint64_t> &freqs) const
{
    uhm_assert(freqs.size() == lengths_.size(), "alphabet mismatch");
    uint64_t total = 0, bits = 0;
    for (size_t i = 0; i < freqs.size(); ++i) {
        total += freqs[i];
        bits += freqs[i] * lengths_[i];
    }
    return total == 0 ? 0.0 :
        static_cast<double>(bits) / static_cast<double>(total);
}

double
entropyBits(const std::vector<uint64_t> &freqs)
{
    uint64_t total = 0;
    for (uint64_t f : freqs)
        total += f;
    if (total == 0)
        return 0.0;
    double h = 0.0;
    for (uint64_t f : freqs) {
        if (f == 0)
            continue;
        double p = static_cast<double>(f) / static_cast<double>(total);
        h -= p * std::log2(p);
    }
    return h;
}

} // namespace uhm
