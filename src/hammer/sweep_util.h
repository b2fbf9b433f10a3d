/**
 * @file
 * Small helpers shared by the population runner (population.cc) and
 * the popsweep supervisor (popsweep.cc): wall-clock deltas and the
 * "key=value" tokens of the popckpt1 / popmeta1 text records.
 */

#ifndef PUD_HAMMER_SWEEP_UTIL_H
#define PUD_HAMMER_SWEEP_UTIL_H

#include <charconv>
#include <chrono>
#include <istream>
#include <string>

#include "stats/sketch.h"

namespace pud::hammer {

/** Wall seconds elapsed since `start`. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Read the next token of `line` as "key=<value>" and return the value
 * text; false when the stream is exhausted or the key differs.
 */
inline bool
kvToken(std::istream &line, const char *key, std::string *value)
{
    std::string tok;
    if (!(line >> tok))
        return false;
    const std::string prefix = std::string(key) + "=";
    if (tok.rfind(prefix, 0) != 0)
        return false;
    *value = tok.substr(prefix.size());
    return true;
}

/** Parse "key=value" with an integral value; false on mismatch. */
template <typename T>
bool
kvInt(std::istream &line, const char *key, T *out)
{
    std::string value;
    if (!kvToken(line, key, &value))
        return false;
    const char *last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), last, *out);
    return ec == std::errc() && ptr == last;
}

/** Parse "key=value" with a stats::hexDouble value. */
inline bool
kvHexDouble(std::istream &line, const char *key, double *out)
{
    std::string value;
    return kvToken(line, key, &value) &&
           stats::parseHexDouble(value, out);
}

} // namespace pud::hammer

#endif // PUD_HAMMER_SWEEP_UTIL_H
