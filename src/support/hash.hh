/**
 * @file
 * FNV-1a, the byte hash of the DIR serializer's checksum trailer and
 * the serving layer's session keys and program hashes.
 */

#ifndef UHM_SUPPORT_HASH_HH
#define UHM_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>

namespace uhm
{

/** 64-bit FNV-1a over @p size bytes at @p data. */
inline uint64_t
fnv1a(const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace uhm

#endif // UHM_SUPPORT_HASH_HH
