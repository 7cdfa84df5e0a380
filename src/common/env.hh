/**
 * @file
 * Strict environment-variable parsing.
 *
 * Every knob the simulator reads from the environment must either
 * parse completely or stop the run: a silently misparsed DCL1_CYCLES
 * ("30k" -> 30) produces results that look plausible and are wrong,
 * which is worse than any crash.
 */

#ifndef DCL1_COMMON_ENV_HH
#define DCL1_COMMON_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dcl1
{

/**
 * Parse @p text (the value of environment variable @p name) as a
 * decimal integer in [@p min_value, @p max_value].
 *
 * fatal()s — naming @p name and echoing @p text — on empty input,
 * non-numeric input, trailing garbage, or an out-of-range value.
 */
std::int64_t parseEnvInt(const char *name, const char *text,
                         std::int64_t min_value, std::int64_t max_value);

/**
 * Read environment variable @p name; when set, strict-parse it as
 * above, otherwise return @p fallback.
 */
std::int64_t envIntOr(const char *name, std::int64_t fallback,
                      std::int64_t min_value, std::int64_t max_value);

/**
 * Read string-valued environment variable @p name; @p fallback when
 * unset. A set-but-empty variable fatal()s — an empty path/name is
 * always a typo (e.g. `DCL1_RUN_DIR= dcl1sweep ...`), and treating it
 * as "unset" would silently drop the durable-run behavior the user
 * asked for.
 *
 * This is the one sanctioned front door for string environment knobs:
 * lint rule R12 `unchecked-env` flags direct getenv() anywhere outside
 * this translation unit.
 */
std::string envStrOr(const char *name, const std::string &fallback);

/** True when @p name is set (to anything, including empty). */
bool envIsSet(const char *name);

/**
 * Split a comma list ("a,,b" -> {"a", "b"}; empty items are dropped).
 * The one splitter for list-valued knobs and command-line options.
 */
std::vector<std::string> splitList(const std::string &text);

/** Inverse of splitList: {"a", "b"} -> "a,b". */
std::string joinList(const std::vector<std::string> &items);

} // namespace dcl1

#endif // DCL1_COMMON_ENV_HH
