#include "core/config_parse.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace iocost::core {

std::vector<std::string>
configTokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

bool
configKeyValue(const std::string &tok, std::string &key,
               std::string &value)
{
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 >= tok.size()) {
        return false;
    }
    key = tok.substr(0, eq);
    value = tok.substr(eq + 1);
    return true;
}

bool
configPositiveNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(v > 0) || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

namespace {

/** Throw `KEY: V is out of range (WHY)`. */
[[noreturn]] void
outOfRange(const std::string &key, double v, const char *unit,
           const std::string &why)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g%s", v, unit);
    throw std::invalid_argument(key + ": " + buf +
                                " is out of range (" + why + ")");
}

/** @return true if the token looks like a "MAJ:MIN" device id. */
bool
isDevNumber(const std::string &tok)
{
    return tok.find('=') == std::string::npos &&
           tok.find(':') != std::string::npos;
}

} // namespace

sim::Time
configMicros(const std::string &key, double us)
{
    const double ns = us * sim::kUsec;
    if (!(ns < 0x1p63))
        outOfRange(key, us, " us", "2^63 ns or more");
    return static_cast<sim::Time>(ns);
}

template <std::unsigned_integral T>
T
configCount(const std::string &key, double v)
{
    constexpr T kMax = std::numeric_limits<T>::max();
    // kMax + 1 is a power of two, exact as a double.
    if (!(v < static_cast<double>(kMax) + 1.0))
        outOfRange(key, v, "", "max " + std::to_string(kMax));
    return static_cast<T>(v);
}

template unsigned configCount<unsigned>(const std::string &, double);
template uint64_t configCount<uint64_t>(const std::string &, double);

std::optional<LinearModelConfig>
parseModelLine(const std::string &line)
{
    LinearModelConfig cfg;
    bool any = false;
    for (const std::string &tok : configTokens(line)) {
        if (isDevNumber(tok))
            continue;
        std::string key, value;
        if (!configKeyValue(tok, key, value))
            return std::nullopt;
        if (key == "ctrl" || key == "model")
            continue; // "ctrl=user model=linear" markers
        double v = 0;
        if (!configPositiveNumber(value, v))
            return std::nullopt;
        if (key == "rbps") {
            cfg.rbps = v;
        } else if (key == "rseqiops") {
            cfg.rseqiops = v;
        } else if (key == "rrandiops") {
            cfg.rrandiops = v;
        } else if (key == "wbps") {
            cfg.wbps = v;
        } else if (key == "wseqiops") {
            cfg.wseqiops = v;
        } else if (key == "wrandiops") {
            cfg.wrandiops = v;
        } else {
            continue; // unknown key: ignore
        }
        any = true;
    }
    if (!any)
        return std::nullopt;
    return cfg;
}

std::string
formatModelLine(const LinearModelConfig &cfg)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ctrl=user model=linear rbps=%.0f rseqiops=%.0f "
                  "rrandiops=%.0f wbps=%.0f wseqiops=%.0f "
                  "wrandiops=%.0f",
                  cfg.rbps, cfg.rseqiops, cfg.rrandiops, cfg.wbps,
                  cfg.wseqiops, cfg.wrandiops);
    return buf;
}

std::optional<QosParams>
parseQosLine(const std::string &line)
{
    QosParams qos;
    bool any = false;
    for (const std::string &tok : configTokens(line)) {
        if (isDevNumber(tok))
            continue;
        std::string key, value;
        if (!configKeyValue(tok, key, value))
            return std::nullopt;
        if (key == "ctrl" || key == "enable")
            continue;
        double v = 0;
        if (!configPositiveNumber(value, v))
            return std::nullopt;
        if (key == "rpct") {
            qos.readLatQuantile = v / 100.0;
        } else if (key == "rlat") {
            qos.readLatTarget = configMicros(key, v);
        } else if (key == "wpct") {
            qos.writeLatQuantile = v / 100.0;
        } else if (key == "wlat") {
            qos.writeLatTarget = configMicros(key, v);
        } else if (key == "min") {
            qos.vrateMin = v / 100.0;
        } else if (key == "max") {
            qos.vrateMax = v / 100.0;
        } else {
            continue;
        }
        any = true;
    }
    if (!any)
        return std::nullopt;
    if (qos.vrateMin > qos.vrateMax)
        return std::nullopt;
    return qos;
}

std::string
formatQosLine(const QosParams &qos)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "enable=1 ctrl=user rpct=%.2f rlat=%.0f "
                  "wpct=%.2f wlat=%.0f min=%.2f max=%.2f",
                  100.0 * qos.readLatQuantile,
                  sim::toMicros(qos.readLatTarget),
                  100.0 * qos.writeLatQuantile,
                  sim::toMicros(qos.writeLatTarget),
                  100.0 * qos.vrateMin, 100.0 * qos.vrateMax);
    return buf;
}

} // namespace iocost::core
