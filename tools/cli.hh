/**
 * @file
 * One option table per command-line tool.
 *
 * Each option of dcl1run, dcl1sweep and dcl1serve is declared once, as
 * an entry of that tool's Flags table: its name, its help line, the
 * variable it sets and, for numbers, its bounds. Parsing and `--help`
 * both read the table, so an option cannot be accepted without being
 * listed, or listed without being accepted.
 *
 * Accepted forms are `--name` (a bare entry) and `--name=VALUE` (a
 * valued entry); a bare and a valued entry may share a name. Anything
 * else is fatal (exit 1). Integers parse through parseEnvInt and
 * reals through parseReal, so malformed or out-of-range numbers stop
 * the tool before it simulates, with an error naming the flag.
 */

#ifndef DCL1_TOOLS_CLI_HH
#define DCL1_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"

namespace dcl1::cli
{

/// Upper bounds the tools put on their integer options.
inline constexpr std::int64_t kMaxI64 =
    std::numeric_limits<std::int64_t>::max();
inline constexpr std::int64_t kMaxU32 =
    std::numeric_limits<std::uint32_t>::max();

/// Upper bound for real-valued options: any finite value.
inline constexpr double kMaxReal = std::numeric_limits<double>::max();

/**
 * Parse @p text (the value of option @p flag) as a finite real number
 * in [@p min_value, @p max_value]. fatal()s, naming @p flag, on empty
 * input, non-numeric input, trailing garbage, NaN, infinity, or an
 * out-of-range value.
 */
double parseReal(const char *flag, const std::string &text,
                 double min_value, double max_value);

/** The option name of a table spec: "--cycles=N" -> "--cycles". */
std::string flagName(const char *spec);

/** One tool's option table. */
class Flags
{
  public:
    /** @p synopsis is the first line of `--help`. */
    explicit Flags(std::string synopsis) : synopsis_(std::move(synopsis)) {}

    /**
     * @name Entries
     * @p spec is the option as `--help` shows it: "--drain" for a bare
     * entry, "--cycles=N" for a valued one. The typed entries append
     * the target's value at declaration, unless zero or empty, to
     * @p help as its default.
     * @{
     */

    /** Bare `--name`: run @p action. */
    void bare(const char *spec, const char *help,
              std::function<void()> action);

    /** Bare `--name`: set @p target. */
    void flag(const char *spec, const char *help, bool &target);

    /** `--name=VALUE`: hand VALUE to @p action. */
    void valued(const char *spec, const char *help,
                std::function<void(const std::string &)> action);

    /** `--name=TEXT`: set @p target to TEXT. */
    void text(const char *spec, const char *help, std::string &target);

    /** `--name=A,B,..`: set @p target to splitList(VALUE). */
    void list(const char *spec, const char *help,
              std::vector<std::string> &target);

    /** `--name=N`: an integer in [@p min_value, @p max_value]. */
    template <typename Int>
    void integer(const char *spec, const char *help, Int &target,
                 std::int64_t min_value, std::int64_t max_value);

    /** `--name=X`: a finite real in [@p min_value, @p max_value]. */
    void real(const char *spec, const char *help, double &target,
              double min_value, double max_value);

    /** `--name=X,Y,..`: finite reals, each as real() reads it. */
    void reals(const char *spec, const char *help,
               std::vector<double> &target, double min_value,
               double max_value);

    /** @} */

    /**
     * Apply argv[1..argc) in order. Returns false after printing
     * help() for `--help` or `-h`; an unknown option is fatal.
     */
    bool parse(int argc, const char *const *argv);

    /** Synopsis, one line per entry, then the exit-code contract. */
    std::string help() const;

  private:
    struct Entry
    {
        std::string name; ///< "--cycles"
        std::string spec; ///< "--cycles=N"
        std::string help;
        bool valued;
        std::function<void(const std::string &)> apply;
    };

    void add(const char *spec, const char *help, bool valued,
             const std::string &default_value,
             std::function<void(const std::string &)> apply);

    std::string synopsis_;
    std::vector<Entry> entries_;
};

template <typename Int>
void
Flags::integer(const char *spec, const char *help, Int &target,
               std::int64_t min_value, std::int64_t max_value)
{
    if (!std::in_range<Int>(min_value) || !std::in_range<Int>(max_value))
        panic("option %s: bounds exceed its target type", spec);
    const std::string name = flagName(spec);
    add(spec, help, true, target != 0 ? std::to_string(target) : "",
        [&target, name, min_value, max_value](const std::string &value) {
            target = static_cast<Int>(parseEnvInt(
                name.c_str(), value.c_str(), min_value, max_value));
        });
}

/**
 * The platform options dcl1run and dcl1serve share: --cores, --slices,
 * --channels and --seed set the same-named members of @p p.
 */
template <typename Platform>
void
addPlatformFlags(Flags &flags, Platform &p)
{
    flags.integer("--cores=N", "GPU cores", p.cores, 1, kMaxU32);
    flags.integer("--slices=N", "L2 slices", p.slices, 1, kMaxU32);
    flags.integer("--channels=N", "DRAM channels", p.channels, 1, kMaxU32);
    flags.integer("--seed=N", "random seed", p.seed, 0, kMaxI64);
}

} // namespace dcl1::cli

#endif // DCL1_TOOLS_CLI_HH
