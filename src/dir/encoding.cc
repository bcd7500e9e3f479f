#include "dir/encoding.hh"

#include <algorithm>

#include "support/flags.hh"
#include "support/logging.hh"

namespace uhm
{

// Factories implemented by the per-scheme translation units.
std::unique_ptr<EncodedDir> makeExpandedDir(const DirProgram &program);
std::unique_ptr<EncodedDir> makePackedDir(const DirProgram &program);
std::unique_ptr<EncodedDir> makeContextualDir(const DirProgram &program);
std::unique_ptr<EncodedDir> makeHuffmanDir(const DirProgram &program);
std::unique_ptr<EncodedDir> makePairHuffmanDir(const DirProgram &program);
std::unique_ptr<EncodedDir> makeQuantizedDir(const DirProgram &program);

const char *
encodingName(EncodingScheme scheme)
{
    switch (scheme) {
      case EncodingScheme::Expanded:    return "expanded";
      case EncodingScheme::Packed:      return "packed";
      case EncodingScheme::Contextual:  return "contextual";
      case EncodingScheme::Huffman:     return "huffman";
      case EncodingScheme::PairHuffman: return "pair-huffman";
      case EncodingScheme::Quantized:   return "quantized";
      default: panic("bad encoding scheme");
    }
}

const std::vector<EncodingScheme> &
allEncodingSchemes()
{
    static const std::vector<EncodingScheme> all = {
        EncodingScheme::Expanded,
        EncodingScheme::Packed,
        EncodingScheme::Contextual,
        EncodingScheme::Huffman,
        EncodingScheme::PairHuffman,
        EncodingScheme::Quantized,
    };
    return all;
}

bool
parseEncodingScheme(const std::string &name, EncodingScheme &out)
{
    return parseByName(name, allEncodingSchemes(), encodingName, out);
}

void
EncodedDir::buildAddrIndex() const
{
    std::lock_guard<std::mutex> lock(addrIndexMutex_);
    if (addrIndexReady_.load(std::memory_order_relaxed))
        return;
    // A flat table costs four bytes per image *bit*; cap it at 16 MiB
    // of host memory (every sample image is a few kilobits). Larger
    // images keep the binary-search path.
    constexpr uint64_t maxDirectBits = uint64_t{1} << 22;
    if (bitSize_ < maxDirectBits && bitAddrs_.size() < UINT32_MAX) {
        addrIndex_.assign(static_cast<size_t>(bitSize_) + 1, UINT32_MAX);
        for (size_t i = 0; i < bitAddrs_.size(); ++i)
            addrIndex_[bitAddrs_[i]] = static_cast<uint32_t>(i);
    }
    addrIndexReady_.store(true, std::memory_order_release);
}

void
EncodedDir::decodeAll(std::vector<DecodeResult> &out) const
{
    out.resize(bitAddrs_.size());
    if (out.empty())
        return;
    uint64_t addr = bitAddrs_.front();
    for (size_t i = 0; i < out.size(); ++i) {
        out[i] = decodeAt(addr);
        addr = out[i].nextBitAddr;
    }
}

size_t
EncodedDir::indexOfBitAddrSlow(uint64_t bit_addr) const
{
    auto it = std::lower_bound(bitAddrs_.begin(), bitAddrs_.end(),
                               bit_addr);
    uhm_assert(it != bitAddrs_.end() && *it == bit_addr,
               "bit address %llu is not an instruction boundary",
               static_cast<unsigned long long>(bit_addr));
    return static_cast<size_t>(it - bitAddrs_.begin());
}

std::unique_ptr<EncodedDir>
encodeDir(const DirProgram &program, EncodingScheme scheme)
{
    program.validate();
    switch (scheme) {
      case EncodingScheme::Expanded:    return makeExpandedDir(program);
      case EncodingScheme::Packed:      return makePackedDir(program);
      case EncodingScheme::Contextual:  return makeContextualDir(program);
      case EncodingScheme::Huffman:     return makeHuffmanDir(program);
      case EncodingScheme::PairHuffman: return makePairHuffmanDir(program);
      case EncodingScheme::Quantized:   return makeQuantizedDir(program);
      default: panic("bad encoding scheme");
    }
}

} // namespace uhm
