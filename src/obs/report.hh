/**
 * @file
 * Profile reports: the machine-readable sidecar of a run.
 *
 * A ProfileData bundles everything the section 7 analysis needs to be
 * checked from outside the process — per-phase cycle buckets, the full
 * counter snapshot, derived ratios (hit ratios, translation
 * amplification) and the retained event trace — and renders it either
 * as JSONL (one self-describing object per line: meta, phases,
 * counters, ratios, trace_summary, then events) or as a single JSON
 * object for embedding inside a larger export document. The JSONL form
 * is what `uhm_cli --profile` and the bench sidecars emit; its format
 * is documented in docs/INTERNALS.md. The event lines, which can run
 * to millions, also stream to a sink in bounded chunks.
 */

#ifndef UHM_OBS_REPORT_HH
#define UHM_OBS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hh"
#include "obs/trace.hh"
#include "support/json.hh"

namespace uhm::obs
{

/**
 * One interval-sampler observation: translation-buffer state captured
 * when the machine's cycle counter crossed a sampling boundary
 * (MachineConfig::sampleIntervalCycles). The per-set occupancy vectors
 * are heatmap columns — one sample per column, one set per row — and
 * the hit/miss deltas are the traffic since the previous sample.
 */
struct OccupancySample
{
    /** Cycle count when the sample was taken. */
    uint64_t cycle = 0;
    /** DIR instructions retired so far. */
    uint64_t dirInstrs = 0;
    /** DTB hits/misses since the previous sample. */
    uint64_t dtbHitsDelta = 0;
    uint64_t dtbMissesDelta = 0;
    /** Trace-cache hits/misses since the previous sample (Tiered). */
    uint64_t traceHitsDelta = 0;
    uint64_t traceMissesDelta = 0;
    /** Valid entries per DTB set (empty when no DTB). */
    std::vector<uint32_t> dtbSetOccupancy;
    /** Valid entries per trace-cache set (empty when no tier). */
    std::vector<uint32_t> traceSetOccupancy;

    bool operator==(const OccupancySample &) const = default;
};

/** Everything one profile report contains, in emission order. */
struct ProfileData
{
    /** Free-form identification: program, machine kind, encoding, ... */
    std::vector<std::pair<std::string, std::string>> meta;
    /** Cycle buckets (fetch, decode, ..., total), in display order. */
    std::vector<std::pair<std::string, uint64_t>> phases;
    /** Hierarchical counter snapshot ("dtb.hits" -> 12). */
    std::map<std::string, uint64_t> counters;
    /** Histogram snapshots ("translate.latency_cycles" -> ...). */
    std::map<std::string, HistogramSnapshot> histograms;
    /** Derived ratios (hit ratios, amplification), in display order. */
    std::vector<std::pair<std::string, double>> ratios;
    /** Interval-sampler time series (empty when sampling was off). */
    std::vector<OccupancySample> samples;
    /** Retained events (may be empty when tracing was off). */
    std::vector<Event> events;
    /** Events recorded in total, including dropped ones. */
    uint64_t eventsSeen = 0;
    /** Events lost to ring overwrite. */
    uint64_t eventsDropped = 0;
};

/**
 * Render @p profile as JSONL: one "\n"-terminated JSON object per line,
 * typed via a "type" member. Event lines come last, oldest first.
 */
std::string toJsonl(const ProfileData &profile);

/** toJsonl(@p profile) streamed to @p sink in bounded chunks. */
void writeJsonl(const ProfileData &profile, const TextSink &sink);

/**
 * The lines of toJsonl(@p profile) before its event lines (meta
 * through samples), so toJsonl = toJsonlHead + eventsToJsonl(events).
 */
std::string toJsonlHead(const ProfileData &profile);

/**
 * Emit @p profile as one JSON object (no events, only their summary)
 * into an in-progress @p jw document.
 */
void writeJson(JsonWriter &jw, const ProfileData &profile);

/** Render @p events alone as JSONL event lines. */
std::string eventsToJsonl(const std::vector<Event> &events);

/**
 * eventsToJsonl(@p events) streamed to @p sink in chunks of about
 * sinkChunkBytes, never holding more than one chunk.
 */
void writeEventsJsonl(const std::vector<Event> &events,
                      const TextSink &sink);

/**
 * Emit one sample as a JSON object (sans the "type" discriminator —
 * the caller sets that, so uhm_cli profiles and sweep reports can
 * share the field layout under different line types).
 */
void writeSampleFields(JsonWriter &jw, const OccupancySample &sample);

} // namespace uhm::obs

#endif // UHM_OBS_REPORT_HH
