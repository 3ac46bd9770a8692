#include "fleet/fleet_scenario.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "host/device_factory.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"

namespace iocost::fleet {

namespace {

[[noreturn]] void
bad(const std::string &why)
{
    throw std::invalid_argument(why);
}

/**
 * SplitMix64 finalizer — the standard seed-decorrelation mix (the
 * same one sim::Rng uses for state expansion). Every per-host
 * derivation routes through this so host properties are uniform and
 * uncorrelated but purely functional in (seed, host).
 */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a mixed draw. */
double
unitDraw(uint64_t seed, uint64_t salt, unsigned host)
{
    const uint64_t r = mix64(mix64(seed ^ salt) + host);
    return static_cast<double>(r >> 11) * 0x1.0p-53;
}

double
parseShare(const std::string &text)
{
    const double v = sim::parseNumber(text);
    if (v <= 0.0)
        bad("share must be > 0");
    return v;
}

device::SsdSpec
deviceByName(const std::string &name)
{
    if (const auto spec = host::ssdByName(name))
        return *spec;
    bad("unknown device \"" + name +
        "\" (A..H, oldgen, newgen, enterprise)");
}

WorkloadKind
workloadByName(const std::string &name)
{
    if (name == "mixed")
        return WorkloadKind::Mixed;
    if (name == "readheavy")
        return WorkloadKind::ReadHeavy;
    if (name == "writeheavy")
        return WorkloadKind::WriteHeavy;
    if (name == "bursty")
        return WorkloadKind::Bursty;
    if (name == "buffered")
        return WorkloadKind::Buffered;
    bad("unknown workload \"" + name +
        "\" (mixed, readheavy, writeheavy, bursty, buffered)");
}

/** Device spec back to its scenario token. */
std::string
deviceToken(const device::SsdSpec &spec)
{
    const std::string &n = spec.name;
    if (n.rfind("fleet-ssd-", 0) == 0 && n.size() == 11)
        return std::string(1, n[10]);
    if (n == device::oldGenSsd().name)
        return "oldgen";
    if (n == device::newGenSsd().name)
        return "newgen";
    if (n == device::enterpriseSsd().name)
        return "enterprise";
    return n; // parse() will reject; canonical() of parsed specs
              // never reaches here.
}

/** Split "a,b,c" on commas (no empty entries allowed). */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t comma = text.find(',', pos);
        const std::string part =
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (part.empty())
            bad("empty list entry");
        out.push_back(part);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

double
normalizedTotal(const std::string &what, std::vector<double> shares)
{
    double total = 0.0;
    for (double s : shares)
        total += s;
    if (total <= 0.0) {
        throw std::invalid_argument("scenario: " + what +
                                    " shares sum to zero");
    }
    return total;
}

std::string
fmtTime(sim::Time t)
{
    char buf[48];
    if (t % sim::kSec == 0) {
        std::snprintf(buf, sizeof(buf), "%llds",
                      static_cast<long long>(t / sim::kSec));
    } else if (t % sim::kMsec == 0) {
        std::snprintf(buf, sizeof(buf), "%lldms",
                      static_cast<long long>(t / sim::kMsec));
    } else if (t % sim::kUsec == 0) {
        std::snprintf(buf, sizeof(buf), "%lldus",
                      static_cast<long long>(t / sim::kUsec));
    } else {
        std::snprintf(buf, sizeof(buf), "%lldns",
                      static_cast<long long>(t));
    }
    return buf;
}

} // namespace

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Mixed:
        return "mixed";
    case WorkloadKind::ReadHeavy:
        return "readheavy";
    case WorkloadKind::WriteHeavy:
        return "writeheavy";
    case WorkloadKind::Bursty:
        return "bursty";
    case WorkloadKind::Buffered:
        return "buffered";
    }
    return "?";
}

namespace {

/** Apply one key=value token of the scenario grammar. */
void
applyKey(FleetScenario &sc, const std::string &key,
         const std::string &value)
{
    if (key == "hosts") {
        sc.hosts = static_cast<unsigned>(sim::parseCount(value));
    } else if (key == "days") {
        sc.days = static_cast<unsigned>(sim::parseCount(value));
    } else if (key == "seed") {
        sc.seed = sim::parseCount(value);
    } else if (key == "shards") {
        sc.shards = static_cast<unsigned>(sim::parseCount(value));
    } else if (key == "migration") {
        for (const std::string &part : splitList(value)) {
            const size_t dots = part.find("..");
            if (dots == std::string::npos)
                bad("expected START..END[:PCT]");
            const size_t colon = part.find(':', dots + 2);
            MigrationStage st;
            st.startDay = static_cast<unsigned>(
                sim::parseCount(part.substr(0, dots)));
            const size_t end_len =
                (colon == std::string::npos ? part.size() : colon) -
                (dots + 2);
            st.endDay = static_cast<unsigned>(
                sim::parseCount(part.substr(dots + 2, end_len)));
            if (st.endDay < st.startDay)
                bad("stage end before start");
            st.fraction = colon == std::string::npos
                              ? 1.0
                              : parseShare(part.substr(colon + 1)) /
                                    100.0;
            sc.stages.push_back(st);
        }
    } else if (key == "devices") {
        for (const std::string &part : splitList(value)) {
            const size_t colon = part.find(':');
            FleetScenario::DeviceShare ds;
            ds.spec = deviceByName(part.substr(0, colon));
            ds.share = colon == std::string::npos
                           ? 1.0
                           : parseShare(part.substr(colon + 1));
            sc.devices.push_back(std::move(ds));
        }
    } else if (key == "workloads") {
        for (const std::string &part : splitList(value)) {
            const size_t colon = part.find(':');
            FleetScenario::WorkloadShare ws;
            ws.kind = workloadByName(part.substr(0, colon));
            ws.share = colon == std::string::npos
                           ? 1.0
                           : parseShare(part.substr(colon + 1));
            sc.workloads.push_back(ws);
        }
    } else if (key == "faults") {
        // Validate eagerly so a bad plan fails at parse time, not
        // from inside the first worker thread.
        (void)sim::FaultPlan::parse(value);
        sc.faults = value;
    } else if (key == "sweep") {
        // Same eager-validation discipline: every entry must be a
        // parseable controller spec before any worker runs.
        sc.sweep = controllers::splitSpecList(value);
        if (sc.sweep.empty())
            bad("empty sweep list");
        for (const std::string &entry : sc.sweep) {
            if (!controllers::parseControllerSpec(entry))
                bad("bad controller spec \"" + entry + "\"");
        }
    } else if (key == "slice") {
        sc.slice = sim::parseTime(value);
    } else if (key == "warmup") {
        sc.warmup = sim::parseTime(value);
    } else if (key == "fetch") {
        sc.fetchBytes = sim::parseBytes(value);
    } else if (key == "fetch_deadline") {
        sc.fetchDeadline = sim::parseTime(value);
    } else if (key == "cleanup") {
        sc.cleanupOps = static_cast<unsigned>(sim::parseCount(value));
    } else if (key == "cleanup_io") {
        sc.cleanupIoBytes = static_cast<uint32_t>(sim::parseBytes(value));
    } else if (key == "cleanup_deadline") {
        sc.cleanupDeadline = sim::parseTime(value);
    } else if (key == "pagecache") {
        sc.pagecacheBytes = sim::parseBytes(value);
    } else if (key == "dirty_ratio") {
        sc.dirtyRatioPct = parseShare(value);
        if (sc.dirtyRatioPct > 100.0)
            bad("dirty_ratio is a percent (<= 100)");
    } else {
        bad("unknown key \"" + key + "\"");
    }
}

} // namespace

FleetScenario
FleetScenario::parse(const std::string &spec)
{
    FleetScenario sc;
    sc.devices.clear();
    sc.workloads.clear();
    sc.stages.clear();

    // Strip comments, then split on whitespace.
    std::string clean;
    clean.reserve(spec.size());
    bool in_comment = false;
    for (char c : spec) {
        if (c == '#')
            in_comment = true;
        if (c == '\n')
            in_comment = false;
        clean.push_back(in_comment ? ' ' : c);
    }

    std::vector<std::string> tokens;
    std::string cur;
    for (char c : clean) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                tokens.push_back(std::move(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        tokens.push_back(std::move(cur));

    for (const std::string &token : tokens) {
        try {
            const size_t eq = token.find('=');
            if (eq == std::string::npos)
                bad("expected key=value");
            applyKey(sc, token.substr(0, eq), token.substr(eq + 1));
        } catch (const std::invalid_argument &err) {
            throw std::invalid_argument("scenario: bad token \"" +
                                        token + "\": " + err.what());
        }
    }

    if (sc.hosts == 0)
        throw std::invalid_argument("scenario: hosts must be > 0");
    if (sc.days == 0)
        throw std::invalid_argument("scenario: days must be > 0");

    // Defaults that depend on other keys resolve after the full
    // token pass.
    if (sc.stages.empty()) {
        sc.stages.push_back(MigrationStage{
            sc.days / 4, std::max(sc.days * 3 / 4, sc.days / 4),
            1.0});
    }
    double coverage = 0.0;
    for (const MigrationStage &st : sc.stages) {
        if (st.endDay > sc.days) {
            throw std::invalid_argument(
                "scenario: migration stage ends past days");
        }
        coverage += st.fraction;
    }
    // Stage percentages are absolute fleet coverage (the remainder
    // stays on iolatency forever), so together they cannot exceed
    // the fleet.
    if (coverage > 1.0 + 1e-9) {
        throw std::invalid_argument(
            "scenario: migration stages cover more than 100% "
            "of the fleet");
    }
    if (sc.devices.empty()) {
        for (char c = 'A'; c <= 'H'; ++c)
            sc.devices.push_back(
                DeviceShare{device::fleetSsd(c), 1.0});
    }
    if (sc.workloads.empty())
        sc.workloads.push_back(
            WorkloadShare{WorkloadKind::Mixed, 1.0});
    // Buffered workloads need a cache; default one in when the mix
    // asks for buffered IO without sizing it explicitly.
    if (sc.pagecacheBytes == 0) {
        for (const WorkloadShare &w : sc.workloads) {
            if (w.kind == WorkloadKind::Buffered) {
                sc.pagecacheBytes = 512ull << 20;
                break;
            }
        }
    }
    return sc;
}

std::string
FleetScenario::canonical() const
{
    char buf[128];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "hosts=%u days=%u seed=%llu", hosts, days,
                  static_cast<unsigned long long>(seed));
    out += buf;
    if (shards != 0) {
        std::snprintf(buf, sizeof(buf), " shards=%u", shards);
        out += buf;
    }

    out += " migration=";
    for (size_t i = 0; i < stages.size(); ++i) {
        const MigrationStage &st = stages[i];
        // Absolute coverage percentages, NOT normalized: a 50%
        // stage leaves half the fleet on iolatency.
        std::snprintf(buf, sizeof(buf), "%s%u..%u:%.6g",
                      i ? "," : "", st.startDay, st.endDay,
                      100.0 * st.fraction);
        out += buf;
    }

    out += " devices=";
    double dev_total = 0.0;
    for (const DeviceShare &d : devices)
        dev_total += d.share;
    for (size_t i = 0; i < devices.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%s:%.6g", i ? "," : "",
                      deviceToken(devices[i].spec).c_str(),
                      100.0 * devices[i].share / dev_total);
        out += buf;
    }

    out += " workloads=";
    double wl_total = 0.0;
    for (const WorkloadShare &w : workloads)
        wl_total += w.share;
    for (size_t i = 0; i < workloads.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%s:%.6g", i ? "," : "",
                      workloadKindName(workloads[i].kind),
                      100.0 * workloads[i].share / wl_total);
        out += buf;
    }

    if (!faults.empty())
        out += " faults=" + faults;

    // Emitted only when set: legacy (pre-pagecache) canonical
    // strings — and the what-if cache hashes derived from them —
    // must not change.
    if (pagecacheBytes != 0) {
        std::snprintf(buf, sizeof(buf), " pagecache=%llu",
                      static_cast<unsigned long long>(
                          pagecacheBytes));
        out += buf;
    }
    if (dirtyRatioPct != 0.0) {
        std::snprintf(buf, sizeof(buf), " dirty_ratio=%.6g",
                      dirtyRatioPct);
        out += buf;
    }

    if (!sweep.empty()) {
        // Spaces inside an entry become commas so the whole sweep
        // stays one key=value token; splitSpecList undoes this.
        out += " sweep=";
        for (size_t i = 0; i < sweep.size(); ++i) {
            std::string entry = sweep[i];
            for (char &c : entry) {
                if (c == ' ')
                    c = ',';
            }
            if (i)
                out += ';';
            out += entry;
        }
    }

    out += " slice=" + fmtTime(slice);
    out += " warmup=" + fmtTime(warmup);
    std::snprintf(buf, sizeof(buf),
                  " fetch=%llu fetch_deadline=%s cleanup=%u "
                  "cleanup_io=%u cleanup_deadline=%s",
                  static_cast<unsigned long long>(fetchBytes),
                  fmtTime(fetchDeadline).c_str(), cleanupOps,
                  cleanupIoBytes,
                  fmtTime(cleanupDeadline).c_str());
    out += buf;
    return out;
}

unsigned
FleetScenario::migrationDay(unsigned host) const
{
    if (stages.empty() || hosts == 0)
        return days; // never migrates

    // Stages own contiguous host-index ranges in spec order; within
    // a stage, hosts migrate staggered across [startDay, endDay).
    // Fractions are absolute fleet coverage — hosts past the last
    // stage's range never migrate (partial-rollout scenarios).
    double cum = 0.0;
    unsigned lo = 0;
    for (size_t i = 0; i < stages.size(); ++i) {
        cum += stages[i].fraction;
        unsigned hi = static_cast<unsigned>(
            std::llround(cum * static_cast<double>(hosts)));
        if (hi > hosts)
            hi = hosts;
        if (host >= lo && host < hi) {
            const MigrationStage &st = stages[i];
            const unsigned span = st.endDay - st.startDay;
            if (span == 0 || hi == lo)
                return st.startDay;
            return st.startDay + (host - lo) * span / (hi - lo);
        }
        lo = hi;
    }
    return days; // rounding gap: never migrates
}

unsigned
FleetScenario::deviceIndexFor(unsigned host) const
{
    if (devices.size() <= 1)
        return 0;
    std::vector<double> shares;
    shares.reserve(devices.size());
    for (const DeviceShare &d : devices)
        shares.push_back(d.share);
    const double total = normalizedTotal("devices", shares);
    const double u = unitDraw(seed, 0xD381C0DEull, host);
    double cum = 0.0;
    for (size_t i = 0; i + 1 < devices.size(); ++i) {
        cum += devices[i].share / total;
        if (u < cum)
            return static_cast<unsigned>(i);
    }
    return static_cast<unsigned>(devices.size() - 1);
}

WorkloadKind
FleetScenario::workloadFor(unsigned host) const
{
    if (workloads.empty())
        return WorkloadKind::Mixed;
    if (workloads.size() == 1)
        return workloads[0].kind;
    std::vector<double> shares;
    shares.reserve(workloads.size());
    for (const WorkloadShare &w : workloads)
        shares.push_back(w.share);
    const double total = normalizedTotal("workloads", shares);
    const double u = unitDraw(seed, 0x3017C10ADull, host);
    double cum = 0.0;
    for (size_t i = 0; i + 1 < workloads.size(); ++i) {
        cum += workloads[i].share / total;
        if (u < cum)
            return workloads[i].kind;
    }
    return workloads.back().kind;
}

uint64_t
FleetScenario::hostDaySeed(unsigned day, unsigned host) const
{
    // Three chained finalizer rounds decorrelate (seed, day, host)
    // without the additive collisions a polynomial such as
    // seed*1000003 + day*10007 + host hits past 10k hosts.
    return mix64(mix64(mix64(seed) ^ day) ^
                 (0x9E3779B97F4A7C15ull + host));
}

} // namespace iocost::fleet
