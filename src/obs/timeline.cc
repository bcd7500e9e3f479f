#include "obs/timeline.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "support/json.hh"

namespace uhm::obs
{

namespace
{

/** Chrome pid all tracks live under (one simulated machine). */
constexpr int tracePid = 1;

/** tid of the cycle-bucket overview track. */
constexpr int overviewTid = 0;

/** Track names indexed by tid (overview first). */
constexpr const char *trackNames[] = {
    "cycle buckets", "ifu", "iu1", "iu2", "translator", "tier",
    "sampler", "sched", "serve",
};
constexpr int numTracks =
    static_cast<int>(sizeof(trackNames) / sizeof(trackNames[0]));

/** Common prologue of one trace event object. */
void
beginTraceEvent(JsonWriter &jw, const char *name, const char *ph,
                uint64_t ts, int tid)
{
    jw.beginObject();
    jw.key("name").value(name);
    jw.key("ph").value(ph);
    jw.key("ts").value(ts);
    jw.key("pid").value(tracePid);
    jw.key("tid").value(tid);
}

void
writeMetadataEvents(JsonWriter &jw, const ProfileData &profile)
{
    std::string process = "uhm";
    for (const auto &kv : profile.meta) {
        if (kv.first == "program" || kv.first == "machine")
            process += " " + kv.second;
    }
    beginTraceEvent(jw, "process_name", "M", 0, overviewTid);
    jw.key("args").beginObject();
    jw.key("name").value(process);
    jw.endObject();
    jw.endObject();

    for (int tid = 0; tid < numTracks; ++tid) {
        beginTraceEvent(jw, "thread_name", "M", 0, tid);
        jw.key("args").beginObject();
        jw.key("name").value(trackNames[tid]);
        jw.endObject();
        jw.endObject();
    }
}

/**
 * The overview track: one span per cycle bucket, laid end to end in
 * phase order, so the top lane reads as a stacked where-did-the-run-go
 * bar. The "total" entry is the sum of the others and is skipped.
 */
void
writeBucketSpans(JsonWriter &jw, const ProfileData &profile)
{
    uint64_t at = 0;
    for (const auto &kv : profile.phases) {
        if (kv.first == "total")
            continue;
        beginTraceEvent(jw, kv.first.c_str(), "X", at, overviewTid);
        jw.key("dur").value(kv.second);
        jw.key("args").beginObject();
        jw.key("bucket_cycles").value(kv.second);
        jw.endObject();
        jw.endObject();
        at += kv.second;
    }
}

/**
 * The span closed by @p e: from the previous event's stamp @p prev to
 * e's own. A merged or corrupted stream could run backwards; the start
 * is clamped so durations never underflow.
 */
TimelineSpan
spanEndingAt(uint64_t prev, const Event &e)
{
    TimelineSpan span;
    span.start = prev <= e.cycle ? prev : e.cycle;
    span.end = e.cycle;
    span.addr = e.addr;
    span.arg = e.arg;
    span.kind = e.kind;
    return span;
}

/** One complete event per span, built on the fly from @p events. */
void
writeSpanEvents(JsonWriter &jw, const std::vector<Event> &events)
{
    uint64_t prev = events.empty() ? 0 : events.front().cycle;
    for (const Event &e : events) {
        const TimelineSpan span = spanEndingAt(prev, e);
        prev = e.cycle;
        beginTraceEvent(jw, eventKindName(span.kind), "X", span.start,
                        eventKindTrackId(span.kind));
        jw.key("cat").value(eventKindTrack(span.kind));
        jw.key("dur").value(span.duration());
        jw.key("args").beginObject();
        jw.key("addr").value(span.addr);
        jw.key("arg").value(span.arg);
        jw.endObject();
        jw.endObject();
    }
}

/** One Chrome counter sample: {"name":..,"ph":"C","ts":..,args}. */
void
writeCounterSample(JsonWriter &jw, const char *name, uint64_t ts,
                   uint64_t value)
{
    beginTraceEvent(jw, name, "C", ts, overviewTid);
    jw.key("args").beginObject();
    jw.key("value").value(value);
    jw.endObject();
    jw.endObject();
}

void
writeSampleCounters(JsonWriter &jw, const ProfileData &profile)
{
    for (const OccupancySample &s : profile.samples) {
        uint64_t dtb_resident = 0;
        for (uint32_t n : s.dtbSetOccupancy)
            dtb_resident += n;
        writeCounterSample(jw, "dtb_resident_entries", s.cycle,
                           dtb_resident);
        writeCounterSample(jw, "dtb_hits_delta", s.cycle,
                           s.dtbHitsDelta);
        writeCounterSample(jw, "dtb_misses_delta", s.cycle,
                           s.dtbMissesDelta);
        if (!s.traceSetOccupancy.empty()) {
            uint64_t trace_resident = 0;
            for (uint32_t n : s.traceSetOccupancy)
                trace_resident += n;
            writeCounterSample(jw, "trace_resident_entries", s.cycle,
                               trace_resident);
        }
    }
}

/**
 * Group the serve-track events by request id and emit one Chrome
 * *async* event tree ("ph":"b"/"e", cat "serve.request", id = the rid)
 * per completed request: an outer `request` span from enqueue to done
 * enclosing `wait` (enqueue -> first dispatch), `acquire` (dispatch ->
 * session resolved), one `slice` per runSlice() call and a final
 * `reply`. Only requests whose enqueue *and* done survived the ring
 * are stitched — a tree with a missing edge would lie about latency.
 * The flat per-event spans stay as-is; the trees ride on top.
 */
void
writeServeRequestTrees(JsonWriter &jw, const std::vector<Event> &events)
{
    struct RequestEvents
    {
        const Event *enqueue = nullptr;
        const Event *begin = nullptr;
        const Event *acquire = nullptr;
        const Event *done = nullptr;
        std::vector<const Event *> slices;
    };
    std::map<uint64_t, RequestEvents> byRid;
    for (const Event &e : events) {
        switch (e.kind) {
          case EventKind::ServeEnqueue: byRid[e.addr].enqueue = &e; break;
          case EventKind::ServeBegin:   byRid[e.addr].begin = &e;   break;
          case EventKind::ServeAcquire: byRid[e.addr].acquire = &e; break;
          case EventKind::ServeDone:    byRid[e.addr].done = &e;    break;
          case EventKind::ServeSlice:
            byRid[e.addr].slices.push_back(&e);
            break;
          default:
            break;
        }
    }

    const int serveTid = eventKindTrackId(EventKind::ServeEnqueue);
    for (const auto &[rid, r] : byRid) {
        if (r.enqueue == nullptr || r.done == nullptr)
            continue;
        char id[24];
        std::snprintf(id, sizeof(id), "%llu",
                      static_cast<unsigned long long>(rid));
        auto async = [&](const char *name, const char *ph, uint64_t ts) {
            beginTraceEvent(jw, name, ph, ts, serveTid);
            jw.key("cat").value("serve.request");
            jw.key("id").value(id);
        };

        async("request", "b", r.enqueue->cycle);
        jw.key("args").beginObject();
        jw.key("rid").value(rid);
        jw.key("verb").value(serveVerbLabel(r.enqueue->arg & 0xFF));
        jw.key("queue_depth").value(r.enqueue->arg >> 8);
        jw.endObject();
        jw.endObject();

        uint64_t last = r.enqueue->cycle;
        if (r.begin != nullptr) {
            async("wait", "b", r.enqueue->cycle);
            jw.key("args").beginObject();
            jw.key("wait_us").value(r.begin->arg);
            jw.endObject();
            jw.endObject();
            async("wait", "e", r.begin->cycle);
            jw.endObject();
            last = r.begin->cycle;
        }
        if (r.acquire != nullptr) {
            async("acquire", "b", last);
            jw.key("args").beginObject();
            char session[24];
            std::snprintf(session, sizeof(session), "%015llx",
                          static_cast<unsigned long long>(
                              r.acquire->arg >> 1));
            jw.key("session").value(session);
            jw.key("cached").value((r.acquire->arg & 1) != 0);
            jw.endObject();
            jw.endObject();
            async("acquire", "e", r.acquire->cycle);
            jw.endObject();
            last = r.acquire->cycle;
        }
        for (const Event *slice : r.slices) {
            uint64_t dur = slice->arg & 0xFFFFF;
            uint64_t start =
                slice->cycle >= dur ? slice->cycle - dur : 0;
            async("slice", "b", std::max(start, last));
            jw.key("args").beginObject();
            jw.key("cycles").value(slice->arg >> 20);
            jw.endObject();
            jw.endObject();
            async("slice", "e", slice->cycle);
            jw.endObject();
            last = slice->cycle;
        }
        uint64_t done = std::max(r.done->cycle, last);
        async("reply", "b", std::min(last, done));
        jw.key("args").beginObject();
        jw.key("service_us").value(r.done->arg);
        jw.endObject();
        jw.endObject();
        async("reply", "e", done);
        jw.endObject();

        async("request", "e", done);
        jw.endObject();
    }
}

} // anonymous namespace

const char *
serveVerbLabel(uint64_t verb)
{
    // Mirrors serve::verbName() by index; obs cannot depend on serve,
    // so serve_test cross-checks the two tables stay in lockstep.
    static constexpr const char *labels[] = {
        "ping", "compile", "encode", "run", "profile", "sweep",
        "stats", "shutdown", "metrics",
    };
    constexpr uint64_t n = sizeof(labels) / sizeof(labels[0]);
    return verb < n ? labels[verb] : "?";
}

const char *
eventKindTrack(EventKind kind)
{
    return trackNames[eventKindTrackId(kind)];
}

int
eventKindTrackId(EventKind kind)
{
    switch (kind) {
      case EventKind::Fetch:
        return 1; // ifu
      case EventKind::Decode:
        return 2; // iu1
      case EventKind::DtbHit:
      case EventKind::DtbMiss:
      case EventKind::Promote:
        return 3; // iu2
      case EventKind::Trap:
      case EventKind::Translate:
      case EventKind::DtbEvict:
      case EventKind::DtbReject:
      case EventKind::DtbFlush:
        return 4; // translator
      case EventKind::TraceRecord:
      case EventKind::TraceAbort:
      case EventKind::Translate2:
      case EventKind::TraceEnter:
      case EventKind::TraceExit:
      case EventKind::TraceEvict:
      case EventKind::TraceInvalidate:
        return 5; // tier
      case EventKind::Sample:
        return 6; // sampler
      case EventKind::SchedSlice:
      case EventKind::SchedSwitch:
        return 7; // sched
      case EventKind::ServeEnqueue:
      case EventKind::ServeBegin:
      case EventKind::ServeDone:
      case EventKind::ServeReject:
      case EventKind::ServeAcquire:
      case EventKind::ServeSlice:
        return 8; // serve
    }
    return overviewTid;
}

std::vector<TimelineSpan>
buildTimelineSpans(const std::vector<Event> &events)
{
    std::vector<TimelineSpan> spans;
    spans.reserve(events.size());
    uint64_t prev = events.empty() ? 0 : events.front().cycle;
    for (const Event &e : events) {
        spans.push_back(spanEndingAt(prev, e));
        prev = e.cycle;
    }
    return spans;
}

void
writeChromeTrace(const ProfileData &profile, const TextSink &sink)
{
    JsonWriter jw(sink);
    jw.beginObject();
    jw.key("traceEvents").beginArray();
    writeMetadataEvents(jw, profile);
    writeBucketSpans(jw, profile);
    writeSpanEvents(jw, profile.events);
    writeServeRequestTrees(jw, profile.events);
    writeSampleCounters(jw, profile);
    jw.endArray();
    jw.key("displayTimeUnit").value("ms");
    jw.key("otherData").beginObject();
    for (const auto &kv : profile.meta)
        jw.key(kv.first).value(kv.second);
    jw.key("events_seen").value(profile.eventsSeen);
    jw.key("events_dropped").value(profile.eventsDropped);
    jw.key("complete").value(profile.eventsDropped == 0);
    jw.endObject();
    jw.endObject();
    jw.flush();
}

std::string
toChromeTrace(const ProfileData &profile)
{
    std::string out;
    writeChromeTrace(profile,
                     [&out](const std::string &text) { out += text; });
    return out;
}

} // namespace uhm::obs
