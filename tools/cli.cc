#include "tools/cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "exec/exit_codes.hh"

namespace dcl1::cli
{

double
parseReal(const char *flag, const std::string &text, double min_value,
          double max_value)
{
    if (text.empty())
        fatal("%s: empty value (expected a number)", flag);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        fatal("%s: '%s' is not a number", flag, text.c_str());
    if (*end != '\0')
        fatal("%s: trailing garbage in '%s' (parsed up to '%s')", flag,
              text.c_str(), end);
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite number", flag, text.c_str());
    if (v < min_value || v > max_value)
        fatal("%s: %g out of range [%g, %g]", flag, v, min_value,
              max_value);
    return v;
}

std::string
flagName(const char *spec)
{
    const std::string s = spec;
    return s.substr(0, s.find('='));
}

void
Flags::add(const char *spec, const char *help, bool valued,
           const std::string &default_value,
           std::function<void(const std::string &)> apply)
{
    Entry e{flagName(spec), spec, help, valued, std::move(apply)};
    if (!default_value.empty())
        e.help += " (default " + default_value + ")";
    for (const Entry &other : entries_)
        if (other.name == e.name && other.valued == valued)
            panic("option %s declared twice", spec);
    entries_.push_back(std::move(e));
}

void
Flags::bare(const char *spec, const char *help,
            std::function<void()> action)
{
    add(spec, help, false, "",
        [action = std::move(action)](const std::string &) { action(); });
}

void
Flags::flag(const char *spec, const char *help, bool &target)
{
    bare(spec, help, [&target] { target = true; });
}

void
Flags::valued(const char *spec, const char *help,
              std::function<void(const std::string &)> action)
{
    add(spec, help, true, "", std::move(action));
}

void
Flags::text(const char *spec, const char *help, std::string &target)
{
    add(spec, help, true, target,
        [&target](const std::string &value) { target = value; });
}

void
Flags::list(const char *spec, const char *help,
            std::vector<std::string> &target)
{
    add(spec, help, true, joinList(target),
        [&target](const std::string &value) { target = splitList(value); });
}

void
Flags::real(const char *spec, const char *help, double &target,
            double min_value, double max_value)
{
    const std::string name = flagName(spec);
    add(spec, help, true, target != 0.0 ? csprintf("%g", target) : "",
        [&target, name, min_value, max_value](const std::string &value) {
            target = parseReal(name.c_str(), value, min_value, max_value);
        });
}

void
Flags::reals(const char *spec, const char *help, std::vector<double> &target,
             double min_value, double max_value)
{
    std::vector<std::string> shown;
    for (const double v : target)
        shown.push_back(csprintf("%g", v));
    const std::string name = flagName(spec);
    add(spec, help, true, joinList(shown),
        [&target, name, min_value, max_value](const std::string &value) {
            target.clear();
            for (const std::string &item : splitList(value))
                target.push_back(
                    parseReal(name.c_str(), item, min_value, max_value));
        });
}

bool
Flags::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help().c_str(), stdout);
            return false;
        }
        const std::size_t eq = arg.find('=');
        const bool valued = eq != std::string::npos;
        const std::string name = arg.substr(0, eq);
        const Entry *match = nullptr;
        for (const Entry &e : entries_)
            if (e.name == name && e.valued == valued)
                match = &e;
        if (match == nullptr)
            fatal("unknown option '%s' (--help lists them)", arg.c_str());
        match->apply(valued ? arg.substr(eq + 1) : std::string());
    }
    return true;
}

std::string
Flags::help() const
{
    std::size_t width = 0;
    for (const Entry &e : entries_)
        width = std::max(width, e.spec.size());
    std::string out = synopsis_ + "\n\n";
    for (const Entry &e : entries_) {
        const std::string pad(width - e.spec.size() + 2, ' ');
        out += "  " + e.spec + pad + e.help + "\n";
    }
    return out + "\n" + exec::kExitCodeContract + "\n";
}

} // namespace dcl1::cli
