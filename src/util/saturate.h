/**
 * @file
 * Saturating arithmetic for trip-count products: counts clamp at
 * UINT64_MAX and times at the ends of the Time range, so a program
 * whose loops multiply past 64 bits reports "at least this much"
 * instead of wrapping.
 */

#ifndef PUD_UTIL_SATURATE_H
#define PUD_UTIL_SATURATE_H

#include <cstdint>
#include <limits>

#include "util/units.h"

namespace pud {

inline constexpr Time kMaxTime = std::numeric_limits<Time>::max();
inline constexpr Time kMinTime = std::numeric_limits<Time>::min();
inline constexpr std::uint64_t kMaxU64 =
    std::numeric_limits<std::uint64_t>::max();

inline std::uint64_t
satAdd(std::uint64_t a, std::uint64_t b)
{
    return a > kMaxU64 - b ? kMaxU64 : a + b;
}

inline std::uint64_t
satMul(std::uint64_t a, std::uint64_t b)
{
    if (a != 0 && b > kMaxU64 / a)
        return kMaxU64;
    return a * b;
}

inline Time
satAddT(Time a, Time b)
{
    Time s;
    if (__builtin_add_overflow(a, b, &s))
        return b > 0 ? kMaxTime : kMinTime;
    return s;
}

/** `a` repeated `n` times; a negative `a` saturates towards kMinTime. */
inline Time
satMulT(Time a, std::uint64_t n)
{
    Time p;
    if (__builtin_mul_overflow(a, n, &p))
        return a > 0 ? kMaxTime : kMinTime;
    return p;
}

/** `n` repetitions of a span, where a negative span counts as empty. */
inline Time
satRepeat(Time span, std::uint64_t n)
{
    return span <= 0 ? 0 : satMulT(span, n);
}

} // namespace pud

#endif // PUD_UTIL_SATURATE_H
