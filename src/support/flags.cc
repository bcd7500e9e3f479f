#include "support/flags.hh"

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

} // namespace uhm
