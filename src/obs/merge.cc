#include "obs/merge.hh"

#include "support/json.hh"

namespace uhm::obs
{

void
mergeCounterSnapshots(std::map<std::string, uint64_t> &into,
                      const std::map<std::string, uint64_t> &from)
{
    for (const auto &kv : from)
        into[kv.first] += kv.second;
}

void
MergedCounters::accumulate(const std::map<std::string, uint64_t> &snapshot)
{
    mergeCounterSnapshots(values_, snapshot);
    ++shards_;
}

uint64_t
MergedCounters::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
}

void
MergedCounters::writeJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const auto &kv : values_)
        jw.key(kv.first).value(kv.second);
    jw.endObject();
}

void
mergeHistogramSnapshots(
    std::map<std::string, HistogramSnapshot> &into,
    const std::map<std::string, HistogramSnapshot> &from)
{
    for (const auto &kv : from)
        into[kv.first].merge(kv.second);
}

void
MergedHistograms::accumulate(
    const std::map<std::string, HistogramSnapshot> &snapshot)
{
    mergeHistogramSnapshots(values_, snapshot);
    ++shards_;
}

HistogramSnapshot
MergedHistograms::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? HistogramSnapshot{} : it->second;
}

void
MergedHistograms::writeJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const auto &kv : values_) {
        jw.key(kv.first);
        kv.second.writeJson(jw);
    }
    jw.endObject();
}

} // namespace uhm::obs
