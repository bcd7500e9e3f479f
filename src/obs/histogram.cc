#include "obs/histogram.hh"

#include <algorithm>

#include "support/json.hh"

namespace uhm::obs
{

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        if (other.min < min)
            min = other.min;
        if (other.max > max)
            max = other.max;
    }
    count += other.count;
    sum += other.sum;

    // Merge two bucket-ordered sparse lists by per-bucket addition.
    std::vector<std::pair<unsigned, uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    size_t a = 0, b = 0;
    while (a < buckets.size() || b < other.buckets.size()) {
        if (b == other.buckets.size() ||
            (a < buckets.size() &&
             buckets[a].first < other.buckets[b].first)) {
            merged.push_back(buckets[a++]);
        } else if (a == buckets.size() ||
                   other.buckets[b].first < buckets[a].first) {
            merged.push_back(other.buckets[b++]);
        } else {
            merged.emplace_back(buckets[a].first,
                                buckets[a].second +
                                    other.buckets[b].second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

void
HistogramSnapshot::writeJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.key("count").value(count);
    jw.key("sum").value(sum);
    jw.key("min").value(min);
    jw.key("max").value(max);
    jw.key("buckets").beginArray();
    for (const auto &bc : buckets) {
        jw.beginArray();
        jw.value(uint64_t{bc.first});
        jw.value(bc.second);
        jw.endArray();
    }
    jw.endArray();
    jw.endObject();
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count_;
    snap.sum = sum_;
    snap.min = min_;
    snap.max = max_;
    snap.buckets.reserve(static_cast<size_t>(
        numBuckets - std::count(buckets_.begin(), buckets_.end(), 0)));
    for (unsigned b = 0; b < numBuckets; ++b) {
        if (buckets_[b] != 0)
            snap.buckets.emplace_back(b, buckets_[b]);
    }
    return snap;
}

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

} // namespace uhm::obs
