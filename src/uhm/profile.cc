#include "uhm/profile.hh"

namespace uhm
{

std::vector<std::pair<std::string, uint64_t>>
cyclePhases(const CycleBreakdown &b)
{
    return {
        {"fetch", b.fetch},         {"decode", b.decode},
        {"stage", b.stage},         {"dispatch", b.dispatch},
        {"semantic", b.semantic},   {"translate", b.translate},
        {"translate2", b.translate2},
        {"total", b.total()},
    };
}

obs::ProfileData
buildProfile(const ProfileMeta &meta, RunResult result)
{
    obs::ProfileData p;
    if (!meta.program.empty())
        p.meta.emplace_back("program", meta.program);
    if (!meta.machine.empty())
        p.meta.emplace_back("machine", meta.machine);
    if (!meta.encoding.empty())
        p.meta.emplace_back("encoding", meta.encoding);
    if (meta.imageBits != 0)
        p.meta.emplace_back("image_bits",
                            std::to_string(meta.imageBits));

    const CycleBreakdown &b = result.breakdown;
    p.phases = cyclePhases(b);

    uint64_t translated = result.counter("machine.translated_instrs");
    uint64_t emitted = result.counter("translate.short_emitted");
    p.counters = std::move(result.counters);
    p.histograms = std::move(result.histograms);
    p.samples = std::move(result.samples);

    p.ratios.emplace_back("cycles_per_instr", result.avgInterpTime());
    p.ratios.emplace_back("dtb.hit_ratio", result.dtbHitRatio);
    p.ratios.emplace_back("dtbl1.hit_ratio", result.dtbL1HitRatio);
    p.ratios.emplace_back("icache.hit_ratio", result.cacheHitRatio);
    p.ratios.emplace_back(
        "translate.amplification",
        translated == 0 ? 0.0 :
        static_cast<double>(emitted) /
        static_cast<double>(translated));
    p.ratios.emplace_back(
        "translate.cycle_fraction",
        b.total() == 0 ? 0.0 :
        static_cast<double>(b.translate) /
        static_cast<double>(b.total()));
    p.ratios.emplace_back("measured_d", result.measuredD);
    p.ratios.emplace_back("measured_x", result.measuredX);
    p.ratios.emplace_back("measured_g", result.measuredG);
    p.ratios.emplace_back("tier.trace_hit_ratio", result.traceHitRatio);
    p.ratios.emplace_back("tier.coverage", result.traceCoverage);
    p.ratios.emplace_back("tier.mean_iter_len",
                          result.traceMeanIterLen);
    p.ratios.emplace_back("measured_g2", result.measuredG2);
    // Trace-ring health: the fraction of recorded events the bounded
    // ring overwrote. Anything above 0 means the event trace (and any
    // timeline built from it) is a suffix of the run, not the whole.
    p.ratios.emplace_back(
        "events.drop_rate",
        result.eventsSeen == 0 ? 0.0 :
        static_cast<double>(result.eventsDropped) /
        static_cast<double>(result.eventsSeen));

    p.events = std::move(result.events);
    p.eventsSeen = result.eventsSeen;
    p.eventsDropped = result.eventsDropped;
    return p;
}

std::string
profileJsonl(const ProfileMeta &meta, const RunResult &result)
{
    return obs::toJsonl(buildProfile(meta, result));
}

std::string
InterpStep::toString() const
{
    std::string s = (miss ? "interp miss dir@" : "interp hit dir@") +
        std::to_string(pc);
    if (miss) {
        s += " -> translate (" + std::to_string(shortInstrs) +
            " short instrs, " + (rejected ? "rejected)" : "stored)");
    }
    return s;
}

std::vector<InterpStep>
interpSteps(const std::vector<obs::Event> &events)
{
    std::vector<InterpStep> steps;
    for (const obs::Event &e : events) {
        if (e.kind == obs::EventKind::DtbHit)
            steps.push_back({e.addr, false, 0, false});
        else if (e.kind == obs::EventKind::Translate)
            steps.push_back({e.addr, true, e.arg, false});
        else if (e.kind == obs::EventKind::DtbReject && !steps.empty() &&
                 steps.back().miss)
            steps.back().rejected = true;
    }
    return steps;
}

} // namespace uhm
