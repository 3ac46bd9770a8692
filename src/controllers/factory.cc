#include "controllers/factory.hh"

#include <algorithm>

#include "controllers/noop.hh"
#include "core/config_parse.hh"
#include "sim/logging.hh"

namespace iocost::controllers {

std::unique_ptr<blk::IoController>
makeController(const ControllerSpec &spec)
{
    if (spec.name == "none")
        return std::make_unique<NoopScheduler>();
    if (spec.name == "mq-deadline")
        return std::make_unique<MqDeadline>(spec.mqDeadline);
    if (spec.name == "kyber")
        return std::make_unique<Kyber>(spec.kyber);
    if (spec.name == "bfq")
        return std::make_unique<Bfq>(spec.bfq);
    if (spec.name == "blk-throttle")
        return std::make_unique<BlkThrottle>(spec.throttle);
    if (spec.name == "iolatency")
        return std::make_unique<IoLatency>(spec.iolatency);
    if (spec.name == "iocost")
        return std::make_unique<core::IoCost>(spec.iocost);
    sim::fatal("unknown IO control mechanism: " + spec.name);
}

namespace {

/**
 * Apply one key=value setting to the mechanism named by spec.name.
 * @return false on an unrecognized key (iocost accepts everything
 *         here; its keys are validated by the io.cost parsers).
 * @throws std::invalid_argument when @p v does not fit the key's
 *         time or count field.
 */
bool
applyKey(ControllerSpec &spec, const std::string &key, double v)
{
    auto micros = [&](double us) {
        return core::configMicros(key, us);
    };
    auto count = [&](double n) {
        return core::configCount<unsigned>(key, n);
    };
    if (spec.name == "kyber") {
        if (key == "rlat")
            spec.kyber.readTarget = micros(v);
        else if (key == "wlat")
            spec.kyber.writeTarget = micros(v);
        else if (key == "window")
            spec.kyber.window = micros(v);
        else if (key == "wdepth")
            spec.kyber.maxWriteDepth = count(v);
        else
            return false;
        return true;
    }
    if (spec.name == "mq-deadline") {
        if (key == "rexpire")
            spec.mqDeadline.readExpire = micros(v);
        else if (key == "wexpire")
            spec.mqDeadline.writeExpire = micros(v);
        else if (key == "batch")
            spec.mqDeadline.fifoBatch = count(v);
        else
            return false;
        return true;
    }
    if (spec.name == "bfq") {
        if (key == "budget")
            spec.bfq.budgetBytes =
                core::configCount<uint64_t>(key, v);
        else if (key == "idle")
            spec.bfq.idleWait = micros(v);
        else if (key == "inject")
            spec.bfq.injectionDepth = count(v);
        else
            return false;
        return true;
    }
    if (spec.name == "blk-throttle") {
        if (key == "riops")
            spec.throttle.defaultLimits.riops = v;
        else if (key == "wiops")
            spec.throttle.defaultLimits.wiops = v;
        else if (key == "rbps")
            spec.throttle.defaultLimits.rbps = v;
        else if (key == "wbps")
            spec.throttle.defaultLimits.wbps = v;
        else
            return false;
        return true;
    }
    if (spec.name == "iolatency") {
        if (key == "window")
            spec.iolatency.window = micros(v);
        else if (key == "mindepth")
            spec.iolatency.minDepth = count(v);
        else if (key == "maxdepth")
            spec.iolatency.maxDepth = count(v);
        else
            return false;
        return true;
    }
    return false;
}

} // namespace

std::optional<ControllerSpec>
parseControllerSpec(const std::string &line)
{
    const std::vector<std::string> toks = core::configTokens(line);
    if (toks.empty())
        return std::nullopt;

    ControllerSpec spec(toks[0]);
    {
        const auto known = allMechanisms();
        if (std::find(known.begin(), known.end(), spec.name) ==
            known.end()) {
            return std::nullopt;
        }
    }

    if (spec.name == "iocost") {
        // The remainder is an io.cost.model + io.cost.qos payload
        // plus donation=/debt=/period= extensions: strip the
        // extensions, delegate the rest to the kernel-format parsers
        // (which each ignore the other's keys).
        std::string rest;
        std::optional<sim::Time> period;
        for (size_t i = 1; i < toks.size(); ++i) {
            std::string key, value;
            if (!core::configKeyValue(toks[i], key, value))
                return std::nullopt;
            if (key == "donation") {
                spec.iocost.donationEnabled = value != "0";
                continue;
            }
            if (key == "period") {
                double v = 0;
                if (!core::configPositiveNumber(value, v))
                    return std::nullopt;
                period = core::configMicros(key, v);
                continue;
            }
            if (key == "debt") {
                if (value == "production")
                    spec.iocost.debtMode =
                        core::DebtMode::Production;
                else if (value == "root")
                    spec.iocost.debtMode =
                        core::DebtMode::RootCharge;
                else if (value == "inversion")
                    spec.iocost.debtMode =
                        core::DebtMode::Inversion;
                else
                    return std::nullopt;
                continue;
            }
            if (!rest.empty())
                rest += ' ';
            rest += toks[i];
        }
        if (!rest.empty()) {
            if (auto model = core::parseModelLine(rest))
                spec.iocost.model = core::CostModel::fromConfig(*model);
            if (auto qos = core::parseQosLine(rest))
                spec.iocost.qos = *qos;
        }
        // period= is applied after the qos payload: an explicit qos
        // block replaces the whole QoS struct (kernel semantics), and
        // the extension then overrides just the planning period.
        if (period)
            spec.iocost.qos.period = *period;
        return spec;
    }

    for (size_t i = 1; i < toks.size(); ++i) {
        std::string key, value;
        double v = 0;
        if (!core::configKeyValue(toks[i], key, value) ||
            !core::configPositiveNumber(value, v) ||
            !applyKey(spec, key, v)) {
            return std::nullopt;
        }
    }
    return spec;
}

std::vector<std::string>
splitSpecList(const std::string &line)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= line.size()) {
        const size_t semi = line.find(';', pos);
        std::string entry = line.substr(
            pos, semi == std::string::npos ? std::string::npos
                                           : semi - pos);
        // Commas double as token separators so a whole entry can
        // live in one whitespace-free word (scenario files, shell
        // one-liners): "iocost,rlat=2000,min=50" == "iocost
        // rlat=2000 min=50".
        for (char &c : entry) {
            if (c == ',')
                c = ' ';
        }
        // Trim outer whitespace; skip empty entries (trailing ';').
        const size_t b = entry.find_first_not_of(" \t");
        if (b != std::string::npos) {
            const size_t e = entry.find_last_not_of(" \t");
            out.push_back(entry.substr(b, e - b + 1));
        }
        if (semi == std::string::npos)
            break;
        pos = semi + 1;
    }
    return out;
}

std::string
iocostPayload(const std::string &line)
{
    const std::vector<std::string> toks = core::configTokens(line);
    if (toks.empty() || toks[0] != "iocost")
        return "";
    std::string rest;
    for (size_t i = 1; i < toks.size(); ++i) {
        if (toks[i].rfind("donation=", 0) == 0 ||
            toks[i].rfind("debt=", 0) == 0 ||
            toks[i].rfind("period=", 0) == 0) {
            continue;
        }
        if (!rest.empty())
            rest += ' ';
        rest += toks[i];
    }
    return rest;
}

std::vector<std::string>
allMechanisms()
{
    return {"none",         "mq-deadline", "kyber", "blk-throttle",
            "bfq",          "iolatency",   "iocost"};
}

std::vector<blk::ControllerCaps>
allCapabilities()
{
    std::vector<blk::ControllerCaps> out;
    for (const std::string &name : allMechanisms())
        out.push_back(makeController(ControllerSpec(name))->caps());
    return out;
}

} // namespace iocost::controllers
