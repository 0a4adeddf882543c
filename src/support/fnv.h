/**
 * @file
 * 64-bit FNV-1a, byte by byte: the hash behind the interleaving
 * coverage keys and digests, the guided corpus digest and the replay
 * log's shared-access digest.  A word folds as its eight bytes, least
 * significant first, so a digest does not depend on host byte order.
 * Committed corpora and replay logs pin these values.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace conair {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Folds one byte into @p h. */
constexpr uint64_t
fnvByte(uint64_t h, uint8_t b)
{
    return (h ^ b) * kFnvPrime;
}

/** Folds the eight bytes of @p w into @p h, least significant first. */
constexpr uint64_t
fnvWord(uint64_t h, uint64_t w)
{
    for (int i = 0; i < 8; ++i)
        h = fnvByte(h, uint8_t(w >> (i * 8)));
    return h;
}

/** Folds @p n bytes at @p p into @p h. */
constexpr uint64_t
fnvBytes(uint64_t h, const char *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        h = fnvByte(h, uint8_t(p[i]));
    return h;
}

} // namespace conair
