#include "whatif/query.hh"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/parse.hh"

namespace iocost::whatif {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::invalid_argument("whatif query: " + what);
}

} // namespace

Query
Query::parse(const std::string &jsonLine)
{
    sim::json::Value doc;
    try {
        doc = sim::json::parse(jsonLine);
    } catch (const std::invalid_argument &err) {
        bad(err.what());
    }
    // The documents are flat: every value is read as text by the
    // grammar of its key, whether written as a number or a string.
    std::set<std::string> known;
    auto find = [&](const char *key) -> const std::string * {
        const sim::json::Value *v = doc.find(key);
        if (!v)
            return nullptr;
        if (v->kind != sim::json::Value::Kind::String &&
            v->kind != sim::json::Value::Kind::Number)
            bad(std::string("key \"") + key +
                "\": expected a string or a number");
        known.insert(key);
        return &v->text;
    };
    auto get = [&](const char *key) -> const std::string & {
        if (const std::string *text = find(key))
            return *text;
        bad(std::string("missing key \"") + key + "\"");
    };

    Query q;
    const std::string &kind = get("q");
    if (kind == "weight") {
        q.kind = Kind::Weight;
        q.cg = get("cg");
        const std::string &value = get("value");
        uint64_t w = 0;
        try {
            w = sim::parseCount(value);
        } catch (const std::invalid_argument &err) {
            bad(std::string("value: ") + err.what());
        }
        if (w == 0 || w > 10000)
            bad("weight must be in [1, 10000]");
        q.weight = static_cast<uint32_t>(w);
    } else if (kind == "device") {
        q.kind = Kind::Device;
        q.profile = get("profile");
    } else if (kind == "fault") {
        q.kind = Kind::Fault;
        q.fault = get("spec");
        // Validate here so a malformed spec fails before it is
        // queued: it must parse and must carry actual windows
        // (retry-policy keys belong in the scenario's fault plan —
        // the block layer's policy is fixed at host build).
        sim::FaultPlan plan;
        try {
            plan = sim::FaultPlan::parse(q.fault);
        } catch (const std::invalid_argument &err) {
            bad(std::string("bad fault spec: ") + err.what());
        }
        if (plan.windows.empty())
            bad("fault spec \"" + q.fault +
                "\" has no fault windows");
    } else {
        bad("unknown query kind \"" + kind +
            "\" (weight, device, fault)");
    }

    if (const std::string *from = find("from")) {
        try {
            q.from = sim::parseTime(*from);
        } catch (const std::invalid_argument &err) {
            bad(std::string("from: ") + err.what());
        }
    }
    for (const std::string &key : doc.keys) {
        if (!known.count(key))
            bad("unknown key \"" + key + "\"");
    }
    return q;
}

std::string
Query::canonical() const
{
    std::string out;
    switch (kind) {
      case Kind::Weight:
        out = "weight cg=" + cg + " value=" + std::to_string(weight);
        break;
      case Kind::Device:
        out = "device profile=" + profile;
        break;
      case Kind::Fault:
        out = "fault spec=" + fault;
        break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " from=%lld",
                  static_cast<long long>(from));
    return out + buf;
}

} // namespace iocost::whatif
