#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace dcl1
{

std::int64_t
parseEnvInt(const char *name, const char *text, std::int64_t min_value,
            std::int64_t max_value)
{
    if (text == nullptr || *text == '\0')
        fatal("%s: empty value (expected an integer)", name);
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text)
        fatal("%s: '%s' is not a number", name, text);
    if (*end != '\0')
        fatal("%s: trailing garbage in '%s' (parsed up to '%s')", name,
              text, end);
    if (errno == ERANGE)
        fatal("%s: '%s' does not fit in a 64-bit integer", name, text);
    if (v < min_value || v > max_value)
        fatal("%s: %lld out of range [%lld, %lld]", name, v,
              static_cast<long long>(min_value),
              static_cast<long long>(max_value));
    return v;
}

std::int64_t
envIntOr(const char *name, std::int64_t fallback, std::int64_t min_value,
         std::int64_t max_value)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    return parseEnvInt(name, text, min_value, max_value);
}

std::string
envStrOr(const char *name, const std::string &fallback)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    if (*text == '\0')
        fatal("%s: set but empty — unset it or give it a value", name);
    return text;
}

bool
envIsSet(const char *name)
{
    return std::getenv(name) != nullptr;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items)
        out += (out.empty() ? "" : ",") + item;
    return out;
}

} // namespace dcl1
