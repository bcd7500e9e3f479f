#include "obs/registry.hh"

#include <algorithm>

#include "support/json.hh"
#include "support/logging.hh"

namespace uhm::obs
{

namespace
{

/** The first entry of @p entries not ordered before @p name. */
template <typename Entries>
auto
lowerBound(Entries &entries, std::string_view name)
{
    return std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const auto &e, std::string_view n) { return e.name() < n; });
}

/** The entry named @p name, or end(). */
template <typename Entries>
auto
find(const Entries &entries, std::string_view name)
{
    auto it = lowerBound(entries, name);
    return it != entries.end() && it->name() == name ? it :
        entries.end();
}

/** Insert @p object as joinName(@p prefix, @p leaf) in name order;
 *  duplicates panic. */
template <typename T>
void
insertSorted(std::vector<Registry::Entry<T>> &entries,
             std::string_view prefix, std::string_view leaf,
             const T *object, const char *what)
{
    Registry::Entry<T> e{};
    const size_t size =
        prefix.empty() ? leaf.size() : prefix.size() + 1 + leaf.size();
    uhm_assert(!leaf.empty(), "%s registered with empty name", what);
    uhm_assert(size <= e.text.size(), "%s name too long", what);
    char *out = e.text.data();
    if (!prefix.empty()) {
        out = std::copy(prefix.begin(), prefix.end(), out);
        *out++ = '.';
    }
    std::copy(leaf.begin(), leaf.end(), out);
    e.size = static_cast<uint8_t>(size);
    e.object = object;

    if (entries.empty())
        entries.reserve(32); // a machine's counters, in one allocation
    auto it = lowerBound(entries, e.name());
    uhm_assert(it == entries.end() || it->name() != e.name(),
               "duplicate %s '%.*s'", what, static_cast<int>(size),
               e.text.data());
    entries.insert(it, e);
}

} // anonymous namespace

std::string
joinName(const std::string &prefix, const std::string &leaf)
{
    return prefix.empty() ? leaf : prefix + "." + leaf;
}

void
Registry::add(std::string_view name, const Counter &counter)
{
    insertSorted(counters_, {}, name, &counter, "counter");
}

void
Registry::add(std::string_view prefix, std::string_view leaf,
              const Counter &counter)
{
    insertSorted(counters_, prefix, leaf, &counter, "counter");
}

uint64_t
Registry::get(std::string_view name) const
{
    auto it = find(counters_, name);
    return it == counters_.end() ? 0 : it->object->value();
}

bool
Registry::contains(std::string_view name) const
{
    return find(counters_, name) != counters_.end();
}

std::map<std::string, uint64_t>
Registry::snapshot() const
{
    std::map<std::string, uint64_t> values;
    for (const Entry<Counter> &e : counters_)
        values.emplace_hint(values.end(), e.name(), e.object->value());
    return values;
}

uint64_t
Registry::total(std::string_view prefix) const
{
    uint64_t sum = 0;
    for (auto it = lowerBound(counters_, prefix); it != counters_.end();
         ++it) {
        const std::string_view name = it->name();
        if (!name.starts_with(prefix))
            break;
        if (name.size() == prefix.size() || name[prefix.size()] == '.')
            sum += it->object->value();
    }
    return sum;
}

void
Registry::addHistogram(std::string_view name, const Histogram &histogram)
{
    insertSorted(histograms_, {}, name, &histogram, "histogram");
}

bool
Registry::containsHistogram(std::string_view name) const
{
    return find(histograms_, name) != histograms_.end();
}

const Histogram *
Registry::histogram(std::string_view name) const
{
    auto it = find(histograms_, name);
    return it == histograms_.end() ? nullptr : it->object;
}

std::map<std::string, HistogramSnapshot>
Registry::histogramSnapshot() const
{
    std::map<std::string, HistogramSnapshot> values;
    for (const Entry<Histogram> &e : histograms_)
        values.emplace_hint(values.end(), e.name(), e.object->snapshot());
    return values;
}

void
Registry::writeJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const Entry<Counter> &e : counters_)
        jw.key(std::string(e.name())).value(e.object->value());
    jw.endObject();
}

} // namespace uhm::obs
