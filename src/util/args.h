/**
 * @file
 * Tiny command-line option parser for bench/example binaries.
 *
 * Supports --key=value and --flag forms; anything else is positional.
 * Bench binaries use it for scale knobs (--rows, --modules, --seed)
 * so users can trade fidelity for runtime.
 */

#ifndef PUD_UTIL_ARGS_H
#define PUD_UTIL_ARGS_H

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/logging.h"

namespace pud {

/** Parsed command-line options. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                auto eq = arg.find('=');
                // Move-assign (not const char* assign): works around a
                // GCC 12 -Wrestrict false positive (PR 105329) that
                // breaks -Werror builds.
                if (eq == std::string::npos)
                    options_[arg.substr(2)] = std::string("1");
                else
                    options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            } else {
                positional_.push_back(arg);
            }
        }
    }

    bool has(const std::string &key) const { return options_.count(key); }

    /**
     * Fatal, naming the option, if any option is not in `known`: a
     * misspelled flag would otherwise run with its default.
     */
    void
    requireKnown(const std::vector<std::string> &known,
                 const std::string &context) const
    {
        for (const auto &entry : options_) {
            if (std::find(known.begin(), known.end(), entry.first) ==
                known.end())
                fatal("%s: unknown option --%s (--help lists the "
                      "options)",
                      context.c_str(), entry.first.c_str());
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    /**
     * Integer value of --key=N.  Non-numeric or trailing-garbage
     * values ("--victims=abc", "--jobs=4x") are a fatal diagnostic,
     * not a silent 0 / truncation.
     */
    long
    getInt(const std::string &key, long fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        const char *s = it->second.c_str();
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(s, &end, 10);
        if (end == s || *end != '\0' || errno == ERANGE)
            fatal("--%s=%s: expected an integer", key.c_str(), s);
        return v;
    }

    /** Like getInt, for real-valued knobs ("--temp=82.5"). */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        const char *s = it->second.c_str();
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(s, &end);
        if (end == s || *end != '\0' || errno == ERANGE)
            fatal("--%s=%s: expected a number", key.c_str(), s);
        return v;
    }

    const std::vector<std::string> &positional() const { return positional_; }

  private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace pud

#endif // PUD_UTIL_ARGS_H
