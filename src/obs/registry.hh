/**
 * @file
 * The counters registry: one namespace for every counter in a machine.
 *
 * Components (DTB, instruction cache, memory, the machine's execution
 * loops) own their obs::Counter members and register them here under
 * hierarchical dotted names — "dtb.hits", "icache.misses",
 * "machine.dir_instrs" — so benches, the CLI's --profile mode and tests
 * read one uniform, machine-readable view of where the events went.
 * The registry holds non-owning pointers: reading it is always a live
 * snapshot, and registration happens once at construction time, never
 * on a hot path. A registry is one sorted vector of entries, each
 * holding its name inline next to its pointer: registering a machine's
 * twenty or so counters is one allocation and no string is built on
 * the heap.
 */

#ifndef UHM_OBS_REGISTRY_HH
#define UHM_OBS_REGISTRY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counter.hh"
#include "obs/histogram.hh"

namespace uhm
{
class JsonWriter;
}

namespace uhm::obs
{

/** Join a hierarchical prefix and a leaf name: "dtb" + "hits". */
std::string joinName(const std::string &prefix, const std::string &leaf);

/** A named, hierarchical view over externally-owned counters. */
class Registry
{
  public:
    /**
     * Publish @p counter under @p name. The counter must outlive the
     * registry. Registering two counters under one name is an internal
     * error (panics).
     */
    void add(std::string_view name, const Counter &counter);

    /** Publish @p counter under joinName(@p prefix, @p leaf). */
    void add(std::string_view prefix, std::string_view leaf,
             const Counter &counter);

    /** Current value of the counter named @p name; 0 if absent. */
    uint64_t get(std::string_view name) const;

    /** True if a counter is registered under @p name. */
    bool contains(std::string_view name) const;

    /** Number of registered counters. */
    size_t size() const { return counters_.size(); }

    /** Materialize every counter's current value, sorted by name. */
    std::map<std::string, uint64_t> snapshot() const;

    /**
     * Sum of every counter whose name starts with "<prefix>." (or
     * equals @p prefix): totals for a whole component.
     */
    uint64_t total(std::string_view prefix) const;

    /** Emit one flat JSON object: {"dtb.hits": 12, ...}. */
    void writeJson(JsonWriter &jw) const;

    // ---- histograms: registered alongside counters, same rules ------

    /**
     * Publish @p histogram under @p name (same lifetime and
     * uniqueness rules as add()). Counter and histogram namespaces
     * are separate sections of the report, but share the dotted
     * naming scheme.
     */
    void addHistogram(std::string_view name, const Histogram &histogram);

    /** True if a histogram is registered under @p name. */
    bool containsHistogram(std::string_view name) const;

    /** The registered histogram, or null. */
    const Histogram *histogram(std::string_view name) const;

    /** Number of registered histograms. */
    size_t numHistograms() const { return histograms_.size(); }

    /** Materialize every histogram's value, sorted by name. */
    std::map<std::string, HistogramSnapshot> histogramSnapshot() const;

    /** One registered object and its name, stored inline. */
    template <typename T>
    struct Entry
    {
        std::array<char, 47> text;
        uint8_t size;
        const T *object;

        std::string_view name() const { return {text.data(), size}; }
    };

  private:
    /** Sorted by name. */
    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Histogram>> histograms_;
};

} // namespace uhm::obs

#endif // UHM_OBS_REGISTRY_HH
