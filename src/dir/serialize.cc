#include "dir/serialize.hh"

#include <fstream>

#include "support/bitstream.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace uhm
{

namespace
{

/** File magic: "UHMDIR" + format version. */
constexpr uint64_t magic = 0x5548'4d44'4952'0001ull;

/** Byte-stream writer with varint support. */
class Writer
{
  public:
    void
    u64(uint64_t v)
    {
        // LEB128.
        while (v >= 0x80) {
            bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
            v >>= 7;
        }
        bytes_.push_back(static_cast<uint8_t>(v));
    }

    void i64(int64_t v) { u64(zigzagEncode(v)); }

    void
    raw64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    std::vector<uint8_t> take() { return std::move(bytes_); }
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

/** Byte-stream reader; underflow is a FatalError (corrupt input). */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size)
    {}

    uint64_t
    u64()
    {
        uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            if (pos_ >= size_)
                fatal("truncated DIR binary");
            uint8_t b = data_[pos_++];
            if (shift >= 64)
                fatal("malformed varint in DIR binary");
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
        }
    }

    int64_t i64() { return zigzagDecode(u64()); }

    uint64_t
    raw64()
    {
        if (pos_ + 8 > size_)
            fatal("truncated DIR binary");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::string
    str()
    {
        uint64_t n = u64();
        if (pos_ + n > size_)
            fatal("truncated DIR binary");
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<size_t>(n));
        pos_ += n;
        return s;
    }

    size_t pos() const { return pos_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // anonymous namespace

std::vector<uint8_t>
serializeDirProgram(const DirProgram &program)
{
    program.validate();

    Writer w;
    w.raw64(magic);
    w.str(program.name);
    w.u64(program.numGlobals);
    w.u64(program.entry);

    w.u64(program.contours.size());
    for (const Contour &c : program.contours) {
        w.str(c.name);
        w.u64(c.depth);
        w.u64(c.nlocals);
        w.u64(c.nparams);
        w.u64(c.entry);
        w.u64(c.isFunc ? 1 : 0);
        w.u64(c.slotsAtDepth.size());
        for (uint32_t s : c.slotsAtDepth)
            w.u64(s);
    }

    w.u64(program.instrs.size());
    for (size_t i = 0; i < program.instrs.size(); ++i) {
        const DirInstruction &ins = program.instrs[i];
        w.u64(static_cast<uint64_t>(ins.op));
        for (size_t k = 0; k < opArity(ins.op); ++k)
            w.i64(ins.operands[k]);
        w.u64(program.contourOf[i]);
    }

    uint64_t checksum = fnv1a(w.bytes().data(), w.bytes().size());
    w.raw64(checksum);
    return w.take();
}

DirProgram
deserializeDirProgram(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < 16)
        fatal("DIR binary too short");

    // Verify the checksum trailer over everything before it.
    size_t body = bytes.size() - 8;
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<uint64_t>(bytes[body + i]) << (8 * i);
    if (fnv1a(bytes.data(), body) != stored)
        fatal("DIR binary checksum mismatch (corrupt file?)");

    Reader r(bytes.data(), body);
    if (r.raw64() != magic)
        fatal("not a DIR binary (bad magic or unsupported version)");

    DirProgram prog;
    prog.name = r.str();
    prog.numGlobals = static_cast<uint32_t>(r.u64());
    prog.entry = static_cast<size_t>(r.u64());

    uint64_t num_contours = r.u64();
    if (num_contours > 1'000'000)
        fatal("implausible contour count in DIR binary");
    prog.contours.reserve(num_contours);
    for (uint64_t c = 0; c < num_contours; ++c) {
        Contour ctr;
        ctr.name = r.str();
        ctr.depth = static_cast<unsigned>(r.u64());
        ctr.nlocals = static_cast<uint32_t>(r.u64());
        ctr.nparams = static_cast<uint32_t>(r.u64());
        ctr.entry = static_cast<size_t>(r.u64());
        ctr.isFunc = r.u64() != 0;
        uint64_t chain = r.u64();
        if (chain > 1'000'000)
            fatal("implausible contour chain in DIR binary");
        for (uint64_t i = 0; i < chain; ++i)
            ctr.slotsAtDepth.push_back(static_cast<uint32_t>(r.u64()));
        prog.contours.push_back(std::move(ctr));
    }

    uint64_t num_instrs = r.u64();
    if (num_instrs > 100'000'000)
        fatal("implausible instruction count in DIR binary");
    prog.instrs.reserve(num_instrs);
    prog.contourOf.reserve(num_instrs);
    for (uint64_t i = 0; i < num_instrs; ++i) {
        uint64_t opv = r.u64();
        if (opv >= numOps)
            fatal("bad opcode %llu in DIR binary",
                  static_cast<unsigned long long>(opv));
        DirInstruction ins(static_cast<Op>(opv));
        for (size_t k = 0; k < opArity(ins.op); ++k)
            ins.operands[k] = r.i64();
        prog.instrs.push_back(ins);
        prog.contourOf.push_back(static_cast<uint32_t>(r.u64()));
    }

    prog.validate();
    return prog;
}

void
saveDirProgram(const DirProgram &program, const std::string &path)
{
    std::vector<uint8_t> bytes = serializeDirProgram(program);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("write to '%s' failed", path.c_str());
}

DirProgram
loadDirProgram(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return deserializeDirProgram(bytes);
}

} // namespace uhm
