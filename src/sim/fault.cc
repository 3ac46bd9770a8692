#include "sim/fault.hh"

#include <stdexcept>
#include <string>

#include "sim/parse.hh"

namespace iocost::sim {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::LatencyMult:
        return "lat";
    case FaultKind::ErrorRate:
        return "err";
    case FaultKind::Stall:
        return "stall";
    case FaultKind::WriteCliff:
        return "cliff";
    }
    return "?";
}

namespace {

[[noreturn]] void
bad(const std::string &why)
{
    throw std::invalid_argument(why);
}

/** Parse "KIND@START+DUR[=PARAM]" into a FaultWindow. */
FaultWindow
parseWindow(FaultKind kind, const std::string &rest)
{
    const size_t plus = rest.find('+');
    if (plus == std::string::npos)
        bad("expected START+DUR after '@'");
    const size_t eq = rest.find('=', plus);

    FaultWindow w;
    w.kind = kind;
    w.start = parseTime(rest.substr(0, plus));
    const size_t dur_end =
        (eq == std::string::npos ? rest.size() : eq) - (plus + 1);
    w.duration = parseTime(rest.substr(plus + 1, dur_end));
    if (w.duration <= 0)
        bad("window duration must be positive");
    if (w.duration > kTimeNever - w.start)
        bad("window ends out of range");

    const bool wants_param =
        kind == FaultKind::LatencyMult || kind == FaultKind::ErrorRate;
    if (wants_param) {
        if (eq == std::string::npos)
            bad("expected '=<value>'");
        w.param = parseNumber(rest.substr(eq + 1));
        if (kind == FaultKind::LatencyMult && w.param <= 0.0)
            bad("latency multiplier must be > 0");
        if (kind == FaultKind::ErrorRate &&
            (w.param < 0.0 || w.param > 1.0))
            bad("error rate must be in [0, 1]");
    } else if (eq != std::string::npos) {
        bad("takes no '=<value>'");
    }
    return w;
}

/** Apply one non-empty token of the plan grammar. */
void
applyToken(FaultPlan &plan, const std::string &token)
{
    const size_t at = token.find('@');
    if (at != std::string::npos) {
        const std::string kind_name = token.substr(0, at);
        FaultKind kind;
        if (kind_name == "lat")
            kind = FaultKind::LatencyMult;
        else if (kind_name == "err")
            kind = FaultKind::ErrorRate;
        else if (kind_name == "stall")
            kind = FaultKind::Stall;
        else if (kind_name == "cliff")
            kind = FaultKind::WriteCliff;
        else
            bad("unknown fault kind \"" + kind_name + "\"");
        plan.windows.push_back(parseWindow(kind, token.substr(at + 1)));
        return;
    }

    const size_t eq = token.find('=');
    if (eq == std::string::npos)
        bad("expected KIND@... or KEY=VALUE");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
        const double n = parseNumber(value);
        if (n < 0.0 || !(n < 0x1p64))
            bad("seed must be in [0, 2^64)");
        plan.seed = static_cast<uint64_t>(n);
    } else if (key == "retries") {
        const double n = parseNumber(value);
        if (n < 0.0 || n > 32.0)
            bad("retries must be in [0, 32]");
        plan.maxRetries = static_cast<unsigned>(n);
    } else if (key == "backoff") {
        plan.retryBackoffBase = parseTime(value);
        if (plan.retryBackoffBase <= 0)
            bad("backoff must be positive");
    } else if (key == "timeout") {
        plan.bioTimeout = parseTime(value);
    } else {
        bad("unknown key \"" + key + "\"");
    }
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string token = spec.substr(begin, end - begin);
        begin = end + 1;
        if (token.empty() && end == spec.size())
            break;
        try {
            if (token.empty())
                bad("empty token");
            applyToken(plan, token);
        } catch (const std::invalid_argument &err) {
            throw std::invalid_argument("faults: bad token \"" + token +
                                        "\": " + err.what());
        }
    }
    return plan;
}

} // namespace iocost::sim
