#include "support/flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "support/logging.hh"

namespace uhm
{

uint64_t
parseUintFlag(const char *flag, const std::string &text, uint64_t min,
              uint64_t max)
{
    size_t used = 0;
    unsigned long long v = 0;
    if (!text.empty() && text[0] >= '0' && text[0] <= '9') {
        try {
            v = std::stoull(text, &used);
        } catch (const std::out_of_range &) {
            used = 0;
        }
    }
    if (used == 0 || used != text.size() || v < min || v > max)
        fatal("%s must be an integer in [%llu, %llu], not '%s'", flag,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max), text.c_str());
    return v;
}

std::vector<int64_t>
parseIntListFlag(const char *flag, const std::string &text)
{
    std::vector<int64_t> values;
    if (text.empty())
        return values;
    for (size_t start = 0;;) {
        size_t end = std::min(text.find(',', start), text.size());
        std::string item = text.substr(start, end - start);
        size_t digits = !item.empty() && item[0] == '-' ? 1 : 0;
        size_t used = 0;
        long long v = 0;
        if (digits < item.size() && item[digits] >= '0' &&
            item[digits] <= '9') {
            try {
                v = std::stoll(item, &used);
            } catch (const std::out_of_range &) {
                used = 0;
            }
        }
        if (used == 0 || used != item.size())
            fatal("%s must be a comma-separated list of integers, not "
                  "'%s'", flag, text.c_str());
        values.push_back(v);
        if (end == text.size())
            return values;
        start = end + 1;
    }
}

double
parsePositiveFlag(const char *flag, const std::string &text)
{
    // Plain decimal only: strtod alone would also take blanks, hex,
    // "inf" and "nan".
    char *end = nullptr;
    double v = 0.0;
    if (!text.empty() && text[0] != '-' && text[0] != '+' &&
        text.find_first_not_of("0123456789.eE+-") == std::string::npos)
        v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v) ||
        !(v > 0.0))
        fatal("%s must be a positive number, not '%s'", flag,
              text.c_str());
    return v;
}

} // namespace uhm
