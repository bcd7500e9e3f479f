#include "dir/enc_huffman_common.hh"

namespace uhm
{

std::vector<TokenTable>
buildTokenTables(const DirProgram &program)
{
    std::vector<TokenTable> tables(numOperandKinds);

    // One pass gathers every operand with its kind and occurrence
    // order; sorting by (kind, value, order) lines up each kind's
    // distinct values with their counts. Each kind then numbers its
    // distinct values by first occurrence.
    struct Occurrence
    {
        uint32_t kind;
        uint32_t seq;
        int64_t value;
    };
    struct Distinct
    {
        uint32_t firstSeq;
        uint32_t count;
        int64_t value;
    };
    size_t operands = 0;
    for (const DirInstruction &ins : program.instrs)
        operands += opInfo(ins.op).operands.size();
    std::vector<Occurrence> occ;
    occ.reserve(operands);
    for (const DirInstruction &ins : program.instrs) {
        const OperandKinds &kinds = opInfo(ins.op).operands;
        for (size_t i = 0; i < kinds.size(); ++i)
            occ.push_back({static_cast<uint32_t>(kinds[i]),
                           static_cast<uint32_t>(occ.size()),
                           ins.operands[i]});
    }
    std::sort(occ.begin(), occ.end(),
              [](const Occurrence &a, const Occurrence &b) {
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  return a.value != b.value ? a.value < b.value :
                      a.seq < b.seq;
              });

    std::vector<Distinct> distinct;
    std::vector<uint64_t> freqs;
    distinct.reserve(operands);
    for (size_t begin = 0; begin < occ.size();) {
        const uint32_t kind = occ[begin].kind;
        distinct.clear();
        size_t i = begin;
        for (; i < occ.size() && occ[i].kind == kind; ++i) {
            if (i > begin && occ[i].value == occ[i - 1].value)
                ++distinct.back().count;
            else
                distinct.push_back({occ[i].seq, 1, occ[i].value});
        }
        begin = i;
        std::sort(distinct.begin(), distinct.end(),
                  [](const Distinct &a, const Distinct &b) {
                      return a.firstSeq < b.firstSeq;
                  });

        TokenTable &tt = tables[kind];
        tt.used = true;
        tt.values.resize(distinct.size());
        tt.byValue.resize(distinct.size());
        freqs.resize(distinct.size());
        for (uint32_t t = 0; t < distinct.size(); ++t) {
            tt.values[t] = distinct[t].value;
            tt.byValue[t] = {distinct[t].value, t};
            freqs[t] = distinct[t].count;
        }
        std::sort(tt.byValue.begin(), tt.byValue.end());
        tt.code = HuffmanCode::build(freqs);
    }
    return tables;
}

std::vector<uint64_t>
opcodeFrequencies(const DirProgram &program)
{
    std::vector<uint64_t> freqs(numOps, 0);
    for (const DirInstruction &ins : program.instrs)
        ++freqs[static_cast<size_t>(ins.op)];
    return freqs;
}

} // namespace uhm
