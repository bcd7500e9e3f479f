#include "obs/report.hh"

#include "support/json.hh"

namespace uhm::obs
{

namespace
{

void
writeEvent(JsonWriter &jw, const Event &e)
{
    jw.beginObject();
    jw.key("type").value("event");
    jw.key("cycle").value(e.cycle);
    jw.key("kind").value(eventKindName(e.kind));
    jw.key("addr").value(e.addr);
    jw.key("arg").value(e.arg);
    jw.endObject();
}

void
writeMeta(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("meta");
    for (const auto &kv : p.meta)
        jw.key(kv.first).value(kv.second);
}

void
writePhases(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("phases");
    for (const auto &kv : p.phases)
        jw.key(kv.first).value(kv.second);
}

void
writeCounters(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("counters");
    for (const auto &kv : p.counters)
        jw.key(kv.first).value(kv.second);
}

void
writeHistograms(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("histograms");
    for (const auto &kv : p.histograms) {
        jw.key(kv.first);
        kv.second.writeJson(jw);
    }
}

void
writeRatios(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("ratios");
    for (const auto &kv : p.ratios)
        jw.key(kv.first).value(kv.second);
}

void
writeTraceSummary(JsonWriter &jw, const ProfileData &p)
{
    jw.key("type").value("trace_summary");
    jw.key("retained").value(static_cast<uint64_t>(p.events.size()));
    jw.key("seen").value(p.eventsSeen);
    jw.key("dropped").value(p.eventsDropped);
}

} // anonymous namespace

std::string
toJsonlHead(const ProfileData &profile)
{
    std::string out;
    auto line = [&out](auto &&fill) {
        JsonWriter jw;
        jw.beginObject();
        fill(jw);
        jw.endObject();
        out += jw.str();
        out += '\n';
    };
    line([&](JsonWriter &jw) { writeMeta(jw, profile); });
    line([&](JsonWriter &jw) { writePhases(jw, profile); });
    line([&](JsonWriter &jw) { writeCounters(jw, profile); });
    line([&](JsonWriter &jw) { writeHistograms(jw, profile); });
    line([&](JsonWriter &jw) { writeRatios(jw, profile); });
    line([&](JsonWriter &jw) { writeTraceSummary(jw, profile); });
    for (const OccupancySample &s : profile.samples) {
        line([&](JsonWriter &jw) {
            jw.key("type").value("sample");
            writeSampleFields(jw, s);
        });
    }
    return out;
}

void
writeJsonl(const ProfileData &profile, const TextSink &sink)
{
    sink(toJsonlHead(profile));
    writeEventsJsonl(profile.events, sink);
}

std::string
toJsonl(const ProfileData &profile)
{
    return toJsonlHead(profile) + eventsToJsonl(profile.events);
}

void
writeJson(JsonWriter &jw, const ProfileData &profile)
{
    jw.beginObject();
    jw.key("meta").beginObject();
    for (const auto &kv : profile.meta)
        jw.key(kv.first).value(kv.second);
    jw.endObject();
    jw.key("phases").beginObject();
    for (const auto &kv : profile.phases)
        jw.key(kv.first).value(kv.second);
    jw.endObject();
    jw.key("counters").beginObject();
    for (const auto &kv : profile.counters)
        jw.key(kv.first).value(kv.second);
    jw.endObject();
    jw.key("histograms").beginObject();
    for (const auto &kv : profile.histograms) {
        jw.key(kv.first);
        kv.second.writeJson(jw);
    }
    jw.endObject();
    jw.key("ratios").beginObject();
    for (const auto &kv : profile.ratios)
        jw.key(kv.first).value(kv.second);
    jw.endObject();
    jw.key("samples_taken").value(
        static_cast<uint64_t>(profile.samples.size()));
    jw.key("events_seen").value(profile.eventsSeen);
    jw.key("events_dropped").value(profile.eventsDropped);
    jw.endObject();
}

std::string
eventsToJsonl(const std::vector<Event> &events)
{
    std::string out;
    writeEventsJsonl(events,
                     [&out](const std::string &text) { out += text; });
    return out;
}

void
writeEventsJsonl(const std::vector<Event> &events, const TextSink &sink)
{
    std::string chunk;
    for (const Event &e : events) {
        JsonWriter jw;
        writeEvent(jw, e);
        chunk += jw.str();
        chunk += '\n';
        if (chunk.size() >= sinkChunkBytes) {
            sink(chunk);
            chunk.clear();
        }
    }
    if (!chunk.empty())
        sink(chunk);
}

void
writeSampleFields(JsonWriter &jw, const OccupancySample &sample)
{
    jw.key("cycle").value(sample.cycle);
    jw.key("dir_instrs").value(sample.dirInstrs);
    jw.key("dtb_hits_delta").value(sample.dtbHitsDelta);
    jw.key("dtb_misses_delta").value(sample.dtbMissesDelta);
    jw.key("trace_hits_delta").value(sample.traceHitsDelta);
    jw.key("trace_misses_delta").value(sample.traceMissesDelta);
    jw.key("dtb_occupancy").beginArray();
    for (uint32_t n : sample.dtbSetOccupancy)
        jw.value(uint64_t{n});
    jw.endArray();
    jw.key("trace_occupancy").beginArray();
    for (uint32_t n : sample.traceSetOccupancy)
        jw.value(uint64_t{n});
    jw.endArray();
}

} // namespace uhm::obs
