#include "sim/parse.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace iocost::sim {

namespace {

[[noreturn]] void
bad(const std::string &why)
{
    throw std::invalid_argument(why);
}

/** The leading number of @p text; @p rest receives the suffix. */
double
leadingNumber(const std::string &text, std::string &rest)
{
    if (text.empty())
        bad("empty value");
    size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (const std::exception &) {
        bad("unparsable number \"" + text + "\"");
    }
    if (!std::isfinite(value))
        bad("non-finite number \"" + text + "\"");
    rest = text.substr(pos);
    return value;
}

double
nonNegative(const std::string &text, std::string &rest)
{
    const double value = leadingNumber(text, rest);
    if (value < 0.0)
        bad("negative value \"" + text + "\"");
    return value;
}

} // namespace

double
parseNumber(const std::string &text)
{
    std::string rest;
    const double value = leadingNumber(text, rest);
    if (!rest.empty())
        bad("trailing junk after \"" + text + "\"");
    return value;
}

uint64_t
parseCount(const std::string &text)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        bad("expected a non-negative integer, got \"" + text + "\"");
    size_t pos = 0;
    uint64_t value = 0;
    try {
        value = std::stoull(text, &pos);
    } catch (const std::exception &) {
        bad("integer out of range \"" + text + "\"");
    }
    if (pos != text.size())
        bad("trailing junk after \"" + text + "\"");
    return value;
}

Time
parseTime(const std::string &text)
{
    std::string unit;
    const double value = nonNegative(text, unit);
    double scale = 0.0;
    if (unit.empty() || unit == "ms")
        scale = static_cast<double>(kMsec);
    else if (unit == "ns")
        scale = static_cast<double>(kNsec);
    else if (unit == "us")
        scale = static_cast<double>(kUsec);
    else if (unit == "s")
        scale = static_cast<double>(kSec);
    else
        bad("unknown time unit \"" + unit + "\"");
    const double ns = value * scale;
    if (!(ns < 0x1p63))
        bad("duration out of range \"" + text + "\"");
    return static_cast<Time>(ns);
}

uint64_t
parseBytes(const std::string &text)
{
    std::string unit;
    const double value = nonNegative(text, unit);
    double scale = 1.0;
    if (unit == "K" || unit == "k")
        scale = 1024.0;
    else if (unit == "M" || unit == "m")
        scale = 1024.0 * 1024.0;
    else if (unit == "G" || unit == "g")
        scale = 1024.0 * 1024.0 * 1024.0;
    else if (!unit.empty())
        bad("unknown size suffix \"" + unit + "\"");
    const double bytes = value * scale;
    if (!(bytes < 0x1p64))
        bad("size out of range \"" + text + "\"");
    return static_cast<uint64_t>(bytes);
}

std::string
specArgument(const std::string &arg)
{
    if (arg.empty() || arg[0] != '@')
        return arg;
    FILE *f = std::fopen(arg.c_str() + 1, "r");
    if (!f)
        bad("cannot read " + arg.substr(1));
    std::string text;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace iocost::sim
