/**
 * @file
 * Cycle-attribution timelines: Chrome-trace-event export of a run.
 *
 * Flat counters average the transient away; the timeline shows it.
 * The machine's typed event ring (obs/trace.hh) stamps every event
 * with the cycle counter *after* the work it names was charged, so
 * consecutive stamps carve the run into contiguous duration spans:
 * the span ending at a `decode` event is that instruction's decode
 * work, the span ending at a `dtb_hit` covers the dispatch lookup plus
 * the executed short sequence of the *previous* instruction, a
 * `translate` span is the PSDER generation burst, and so on. Together
 * with the cycle buckets (one overview span per bucket, laid end to
 * end) this reconstructs where the cycles went over time — the
 * cold-start miss storm, translation bursts, tier-2 promotion waves —
 * without any extra hot-path instrumentation.
 *
 * The export target is the Chrome trace-event JSON format (the
 * "JSON Array Format" with a `traceEvents` top-level key), loadable in
 * Perfetto or chrome://tracing. One track (thread) per machine unit:
 * the cycle-bucket overview, the IFU, IU1, IU2, the dynamic
 * translator, the tier engine and the interval sampler. Occupancy
 * samples additionally become Chrome counter series.
 * `scripts/trace_report.py --check` validates the schema.
 */

#ifndef UHM_OBS_TIMELINE_HH
#define UHM_OBS_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "obs/trace.hh"

namespace uhm::obs
{

/** One reconstructed duration span ([start, end] in machine cycles). */
struct TimelineSpan
{
    uint64_t start = 0;
    uint64_t end = 0;
    /** DIR bit address of the event that closed the span. */
    uint64_t addr = 0;
    /** Kind-specific argument of that event. */
    uint64_t arg = 0;
    EventKind kind = EventKind::Fetch;

    uint64_t duration() const { return end - start; }
};

/**
 * The machine unit whose track @p kind renders on: "ifu" (fetch),
 * "iu1" (decode), "iu2" (dispatch / DTB), "translator" (trap,
 * translate, DTB allocation, flushes), "tier" (recording, tier-2
 * compilation, trace dispatch), "sampler" or "sched" (tenant slices
 * and switches). Total and stable: every EventKind has a track.
 */
const char *eventKindTrack(EventKind kind);

/** Stable Chrome tid of @p kind's track (the overview track is 0). */
int eventKindTrackId(EventKind kind);

/**
 * Display label of the serve verb index packed into a ServeEnqueue
 * arg's low byte ("run", "metrics", ...; "?" when out of range).
 * Mirrors serve::verbName() by enum value — obs cannot link against
 * serve, so tests/serve_test.cc checks the two tables agree.
 */
const char *serveVerbLabel(uint64_t verb);

/**
 * Reconstruct duration spans from a cycle-ordered event stream: span i
 * runs from the previous event's stamp to event i's stamp and carries
 * event i's kind/addr/arg. The first event opens at its own stamp (a
 * ring that dropped its prefix has no earlier boundary to anchor on).
 */
std::vector<TimelineSpan>
buildTimelineSpans(const std::vector<Event> &events);

/**
 * Render @p profile as one Chrome trace-event JSON document:
 * process/thread metadata, one overview span per cycle bucket, one
 * complete ("ph":"X") event per reconstructed span, async ("ph":"b"/
 * "e", cat "serve.request") per-request span trees stitched from the
 * serve-track events by request id (enqueue -> wait -> acquire ->
 * slices -> reply), and counter ("ph":"C") series from the occupancy
 * samples. Timestamps are the machine cycle counter (server
 * microseconds on the serve track), written as trace microseconds.
 * `otherData` carries the profile meta and the events seen/dropped
 * totals, so a truncated timeline is detectable from the file alone.
 */
std::string toChromeTrace(const ProfileData &profile);

/** toChromeTrace(@p profile) streamed to @p sink in bounded chunks. */
void writeChromeTrace(const ProfileData &profile, const TextSink &sink);

} // namespace uhm::obs

#endif // UHM_OBS_TIMELINE_HH
