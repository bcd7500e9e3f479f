/**
 * @file
 * Strict parsing of numeric command-line flag values: a malformed
 * value raises FatalError naming the flag, never a silent truncation.
 */

#ifndef UHM_SUPPORT_FLAGS_HH
#define UHM_SUPPORT_FLAGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace uhm
{

/**
 * The value @p text of flag @p flag as an unsigned integer in
 * [@p min, @p max]. An empty value, a sign, trailing characters or a
 * value outside the range raises FatalError naming the flag. It never
 * wraps, as std::stoull does ("-1" parses as 2^64-1).
 */
uint64_t parseUintFlag(const char *flag, const std::string &text,
                       uint64_t min, uint64_t max);

/**
 * The value @p text of flag @p flag as a comma-separated list of signed
 * 64-bit integers ("" is the empty list). An empty item, a '+',
 * trailing characters or a value outside int64_t raises FatalError
 * naming the flag, where std::stoll would drop "27x" to 27.
 */
std::vector<int64_t> parseIntListFlag(const char *flag,
                                      const std::string &text);

/**
 * The value @p text of flag @p flag as a finite decimal number > 0.
 * A sign, blanks, hex, "inf", "nan" or trailing characters raise
 * FatalError naming the flag, where std::stod would read "1x" as 1.
 */
double parsePositiveFlag(const char *flag, const std::string &text);

/**
 * The inverse of a printable-name function: the one of @p values that
 * @p name_of names @p name, into @p out. @return false when none is.
 */
template <typename T, typename Values>
bool
parseByName(const std::string &name, const Values &values,
            const char *(*name_of)(T), T &out)
{
    for (T value : values) {
        if (name == name_of(value)) {
            out = value;
            return true;
        }
    }
    return false;
}

} // namespace uhm

#endif // UHM_SUPPORT_FLAGS_HH
