#include "core/trace_sim.hh"

namespace uhm
{

TraceSimResult
simulateDtbTrace(const std::vector<uint64_t> &trace,
                 const DtbConfig &config,
                 const std::function<unsigned(uint64_t)> &translation_size)
{
    Dtb dtb(config);
    TraceSimResult result;
    for (uint64_t addr : trace) {
        if (dtb.lookup(addr).hit) {
            ++result.hits;
            continue;
        }
        ++result.misses;
        // Mirror the machine: translate and attempt to install. Only
        // the translation's *size* matters for buffer accounting, so a
        // placeholder sequence of the right length suffices.
        unsigned len = translation_size(addr);
        std::vector<ShortInstr> placeholder(
            len, ShortInstr{SOp::INTERP, SMode::Imm, 0});
        if (!dtb.insert(addr, placeholder).retained)
            ++result.rejects;
    }
    return result;
}

} // namespace uhm
