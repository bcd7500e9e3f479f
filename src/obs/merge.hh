/**
 * @file
 * Deterministic merging of per-worker observability state.
 *
 * A parallel sweep gives every simulation point its own Machine and
 * therefore its own obs::Registry and obs::Tracer — nothing in the hot
 * path is shared, so there is nothing to contend on. The cost of that
 * isolation is aggregation: after the sweep, the per-point counter
 * and histogram snapshots must be folded into one view, and that fold
 * must be bit-identical regardless of thread count or completion
 * order.
 *
 * The rules that guarantee it (also in docs/INTERNALS.md):
 *
 *  1. merges run over *snapshots* (plain values), never live counters,
 *     so a merge can happen after the machines are gone;
 *  2. snapshots are accumulated in shard-index (sweep-point) order,
 *     never completion order — the caller iterates its result vector,
 *     which is index-addressed;
 *  3. counter merging is per-name addition over name-ordered maps, so
 *     the merged map's iteration order is the sorted-name order no
 *     matter how the inputs arrived.
 */

#ifndef UHM_OBS_MERGE_HH
#define UHM_OBS_MERGE_HH

#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.hh"

namespace uhm
{
class JsonWriter;
}

namespace uhm::obs
{

/** Add every counter of @p from into @p into (absent names appear). */
void mergeCounterSnapshots(std::map<std::string, uint64_t> &into,
                           const std::map<std::string, uint64_t> &from);

/**
 * Accumulator for per-worker/per-point counter snapshots. Feed it
 * snapshots in sweep-point order; the merged view is then independent
 * of which worker produced which snapshot when.
 */
class MergedCounters
{
  public:
    /** Fold one end-of-run snapshot into the aggregate. */
    void accumulate(const std::map<std::string, uint64_t> &snapshot);

    /** Snapshots folded in so far. */
    uint64_t shards() const { return shards_; }

    /** Merged value of @p name; 0 if never seen. */
    uint64_t get(const std::string &name) const;

    /** The merged snapshot, name-ordered. */
    const std::map<std::string, uint64_t> &values() const
    {
        return values_;
    }

    /** Emit one flat JSON object: {"dtb.hits": 12, ...}. */
    void writeJson(JsonWriter &jw) const;

  private:
    std::map<std::string, uint64_t> values_;
    uint64_t shards_ = 0;
};

/** Fold every histogram of @p from into @p into (absent names appear). */
void mergeHistogramSnapshots(
    std::map<std::string, HistogramSnapshot> &into,
    const std::map<std::string, HistogramSnapshot> &from);

/**
 * Accumulator for per-point histogram snapshots, the histogram twin of
 * MergedCounters. Histogram merging is per-bucket addition plus
 * min/max folds — commutative and associative — but feed snapshots in
 * sweep-point order anyway so every aggregate in a report obeys the
 * same rule.
 */
class MergedHistograms
{
  public:
    /** Fold one end-of-run histogram snapshot map into the aggregate. */
    void accumulate(
        const std::map<std::string, HistogramSnapshot> &snapshot);

    /** Snapshot maps folded in so far. */
    uint64_t shards() const { return shards_; }

    /** The merged snapshot of @p name (empty if never seen). */
    HistogramSnapshot get(const std::string &name) const;

    /** The merged snapshots, name-ordered. */
    const std::map<std::string, HistogramSnapshot> &values() const
    {
        return values_;
    }

    /** Emit {"name": {histogram object}, ...}. */
    void writeJson(JsonWriter &jw) const;

  private:
    std::map<std::string, HistogramSnapshot> values_;
    uint64_t shards_ = 0;
};

} // namespace uhm::obs

#endif // UHM_OBS_MERGE_HH
