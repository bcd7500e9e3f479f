/**
 * @file
 * Range-checked parsing of numeric command-line flag values.
 */

#ifndef UHM_SUPPORT_FLAGS_HH
#define UHM_SUPPORT_FLAGS_HH

#include <cstdint>
#include <string>

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

} // namespace uhm

#endif // UHM_SUPPORT_FLAGS_HH
