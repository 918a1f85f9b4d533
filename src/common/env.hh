/**
 * @file
 * Strict environment-knob parsing, shared by every EV8_* switch.
 *
 * The --jobs discipline (strict digits-only parsing, a hard usage error
 * on garbage instead of a silent fallback) applies to environment knobs
 * too: a typo like EV8_CACHE_METRICS=ture or EV8_BRANCHES_PER_BENCH=1e6
 * must not silently select a default the user did not ask for. Every helper
 * here either returns the parsed value or prints one clear stderr
 * diagnostic naming the variable and exits with the usage status (2),
 * matching EV8_JOBS / EV8_RETRY_MAX.
 */

#ifndef EV8_COMMON_ENV_HH
#define EV8_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace ev8
{

/**
 * Strictly parses an unsigned decimal: digits only, value in
 * [lo, hi]. Throws std::invalid_argument with a human-readable message
 * on anything else (empty, signs, garbage, out of range).
 */
uint64_t parseStrictU64(const std::string &text, uint64_t lo,
                        uint64_t hi);

/**
 * Reads the integer environment knob @p name: unset returns @p fallback,
 * a valid value in [lo, hi] parses, and a set-but-invalid value is a
 * hard usage error (one stderr line naming the variable, exit 2).
 */
uint64_t strictEnvU64(const char *name, uint64_t lo, uint64_t hi,
                      uint64_t fallback);

/**
 * Reads the boolean environment knob @p name: unset returns
 * @p fallback, "0" is false, "1" is true, and anything else is a hard
 * usage error (exit 2) -- never a silent fallback.
 */
bool strictEnvBool(const char *name, bool fallback);

} // namespace ev8

#endif // EV8_COMMON_ENV_HH
