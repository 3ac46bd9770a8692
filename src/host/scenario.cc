#include "host/scenario.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/config_parse.hh"
#include "host/device_factory.hh"
#include "profile/device_profiler.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"

namespace iocost::host {

namespace {

[[noreturn]] void
bad(const std::string &why)
{
    throw std::invalid_argument(why);
}

std::string
trim(const std::string &s)
{
    const size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** The job keys that choose an arrival mode; a job takes one. */
constexpr std::pair<const char *, workload::Arrival> kArrivalKeys[] = {
    {"rate", workload::Arrival::Rate},
    {"thinktime", workload::Arrival::ThinkTime},
    {"latency_target", workload::Arrival::LatencyGoverned},
};

void
setArrival(workload::FioConfig &fio, workload::Arrival arrival)
{
    for (const auto &[key, mode] : kArrivalKeys) {
        if (fio.arrival == mode && mode != arrival)
            bad(std::string("conflicts with ") + key + "=");
    }
    fio.arrival = arrival;
}

/** An io.latency line without MAJ:MIN: target=<us>. */
sim::Time
parseIoLatency(const std::string &value)
{
    const std::vector<std::string> toks = core::configTokens(value);
    std::string key, number;
    double us = 0;
    if (toks.size() != 1 || !core::configKeyValue(toks[0], key, number) ||
        key != "target" || !core::configPositiveNumber(number, us))
        bad("expected target=<us>");
    return core::configMicros(key, us);
}

void
applyJobKey(JobSpec &job, const std::string &key,
            const std::string &value)
{
    if (key == "weight") {
        const uint64_t w = sim::parseCount(value);
        if (w == 0 || w > 10000)
            bad("weight must be in [1, 10000]");
        job.weight = static_cast<uint32_t>(w);
    } else if (key == "depth") {
        job.fio.iodepth = sim::narrow<unsigned>(sim::parseCount(value));
    } else if (key == "bs") {
        job.fio.blockSize = sim::narrow<uint32_t>(sim::parseBytes(value));
        if (job.fio.blockSize == 0)
            bad("must be positive");
    } else if (key == "rw") {
        if (value == "read")
            job.fio.readFraction = 1.0;
        else if (value == "write")
            job.fio.readFraction = 0.0;
        else if (value == "mixed")
            job.fio.readFraction = 0.5;
        else
            bad("expected read, write or mixed");
    } else if (key == "pattern") {
        if (value == "rand")
            job.fio.randomFraction = 1.0;
        else if (value == "seq")
            job.fio.randomFraction = 0.0;
        else
            bad("expected rand or seq");
    } else if (key == "rate") {
        setArrival(job.fio, workload::Arrival::Rate);
        job.fio.ratePerSec = sim::parseNumber(value);
        if (!(job.fio.ratePerSec > 0))
            bad("must be positive");
    } else if (key == "thinktime") {
        setArrival(job.fio, workload::Arrival::ThinkTime);
        job.fio.thinkTime = sim::parseTime(value);
    } else if (key == "latency_target") {
        setArrival(job.fio, workload::Arrival::LatencyGoverned);
        job.fio.latencyTarget = sim::parseTime(value);
        if (job.fio.latencyTarget == 0)
            bad("must be positive");
    } else if (key == "io.max") {
        // The blk-throttle controller line reads the same keys.
        const auto spec =
            controllers::parseControllerSpec("blk-throttle " + value);
        if (!spec || core::configTokens(value).empty())
            bad("expected riops=, wiops=, rbps= or wbps= values");
        job.ioMax = spec->throttle.defaultLimits;
    } else if (key == "io.latency") {
        job.ioLatencyTarget = parseIoLatency(value);
    } else if (key == "buffered") {
        job.buffered = sim::parseCount(value) != 0;
    } else if (key == "fsync") {
        job.fsyncEvery = sim::narrow<uint32_t>(sim::parseCount(value));
    } else if (key == "span") {
        job.spanBytes = sim::parseBytes(value);
    } else {
        bad("unknown job key");
    }
}

/** Set one scenario key, validating its value. */
void
applyScenarioKey(ScenarioSpec &sc, const std::string &key,
                 const std::string &value)
{
    if (key == "device") {
        (void)profile::namedDevice(value);
        sc.device = value;
    } else if (key == "controller") {
        if (!controllers::parseControllerSpec(value))
            bad("bad controller spec \"" + value + "\"");
        sc.controller = value;
    } else if (key == "model") {
        if (!value.empty() && !core::parseModelLine(value))
            bad("bad io.cost.model line \"" + value + "\"");
        sc.model = value;
    } else if (key == "qos") {
        if (!value.empty() && !core::parseQosLine(value))
            bad("bad io.cost.qos line \"" + value + "\"");
        sc.qos = value;
    } else if (key == "faults") {
        (void)sim::FaultPlan::parse(value);
        sc.faults = value;
    } else if (key == "seconds") {
        sc.seconds = sim::parseNumber(value);
    } else if (key == "warmup") {
        sc.warmup = sim::parseTime(value);
    } else if (key == "seed") {
        sc.seed = sim::parseCount(value);
    } else if (key == "pagecache") {
        sc.pagecacheBytes = sim::parseBytes(value);
    } else if (key == "dirty_ratio") {
        sc.dirtyRatioPct = sim::parseNumber(value);
        if (sc.dirtyRatioPct < 0.0 || sc.dirtyRatioPct > 100.0)
            bad("must be in [0, 100]");
    } else if (key == "job") {
        if (value.empty())
            bad("empty job spec");
        (void)parseJob(value);
        sc.jobs.push_back(value);
    } else if (key == "marks") {
        size_t pos = 0;
        while (pos <= value.size()) {
            size_t comma = value.find(',', pos);
            if (comma == std::string::npos)
                comma = value.size();
            const std::string tok = trim(value.substr(pos, comma - pos));
            pos = comma + 1;
            if (!tok.empty())
                sc.marks.push_back(sim::parseTime(tok));
        }
    } else {
        bad("unknown key");
    }
}

/** io.max and io.latency are read only by their own controllers. */
void
checkCgroupKeys(const JobSpec &job, const std::string &mechanism)
{
    if (job.ioMax && mechanism != "blk-throttle")
        bad("scenario: job \"" + job.name +
            "\": io.max needs controller=blk-throttle");
    if (job.ioLatencyTarget != 0 && mechanism != "iolatency")
        bad("scenario: job \"" + job.name +
            "\": io.latency needs controller=iolatency");
}

/** The model a scenario's iocost defaults to: its model line, else
 *  the device profile. */
core::LinearModelConfig
scenarioModel(const ScenarioSpec &sc,
              const core::LinearModelConfig &profile)
{
    if (sc.model.empty())
        return profile;
    const auto parsed = core::parseModelLine(sc.model);
    if (!parsed)
        bad("bad io.cost.model line \"" + sc.model + "\"");
    return *parsed;
}

/** The scenario's qos line, which replaces every iocost QoS. */
std::optional<core::QosParams>
scenarioQos(const ScenarioSpec &sc)
{
    if (sc.qos.empty())
        return std::nullopt;
    const auto parsed = core::parseQosLine(sc.qos);
    if (!parsed)
        bad("bad io.cost.qos line \"" + sc.qos + "\"");
    return parsed;
}

/** Defaults, then the scenario's qos line, for one controller line. */
void
resolveController(controllers::ControllerSpec &spec,
                  const std::string &line,
                  const core::LinearModelConfig &model,
                  const std::optional<core::QosParams> &qos)
{
    applyIocostDefaults(spec, line, model);
    if (qos)
        spec.iocost.qos = *qos;
}

} // namespace

JobSpec
parseJob(const std::string &text)
{
    JobSpec job;
    size_t pos = text.find(':');
    job.name = text.substr(0, pos);
    while (pos != std::string::npos) {
        const size_t next = text.find(':', pos + 1);
        const std::string part = text.substr(
            pos + 1, next == std::string::npos ? std::string::npos
                                               : next - pos - 1);
        pos = next;
        const size_t eq = part.find('=');
        if (eq == std::string::npos) {
            bad("bad job \"" + text + "\": expected key=value, got \"" +
                part + "\"");
        }
        const std::string key = part.substr(0, eq);
        try {
            applyJobKey(job, key, part.substr(eq + 1));
        } catch (const std::invalid_argument &err) {
            bad("bad job \"" + text + "\": " + key + ": " + err.what());
        }
    }
    if (job.fio.arrival == workload::Arrival::LatencyGoverned)
        job.fio.governMaxDepth = job.fio.iodepth;
    return job;
}

sim::Time
ScenarioSpec::duration() const
{
    return static_cast<sim::Time>(seconds *
                                  static_cast<double>(sim::kSec));
}

sim::Time
ScenarioSpec::warmupTime() const
{
    return warmup ? *warmup
                  : static_cast<sim::Time>(0.1 * seconds * sim::kSec);
}

ScenarioSpec
ScenarioSpec::parse(const std::string &text)
{
    ScenarioSpec sc;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t sep = text.find_first_of(";\n", pos);
        if (sep == std::string::npos)
            sep = text.size();
        const std::string entry = trim(text.substr(pos, sep - pos));
        pos = sep + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos)
            bad("scenario: expected key=value, got \"" + entry + "\"");
        const std::string key = trim(entry.substr(0, eq));
        try {
            applyScenarioKey(sc, key, trim(entry.substr(eq + 1)));
        } catch (const std::invalid_argument &err) {
            bad("scenario: " + key + ": " + err.what());
        }
    }
    sc.normalize();
    return sc;
}

void
ScenarioSpec::normalize()
{
    if (seconds <= 0.0)
        bad("scenario: seconds must be > 0");
    if (!(seconds * static_cast<double>(sim::kSec) < 0x1p63))
        bad("scenario: seconds out of range");
    if (jobs.empty()) {
        jobs.push_back("web:weight=200:depth=32");
        jobs.push_back("batch:weight=100:depth=32");
    }
    const sim::Time total = duration();
    if (warmup && *warmup > std::numeric_limits<sim::Time>::max() - total)
        bad("scenario: warmup out of range");
    const auto ctl = controllers::parseControllerSpec(controller);
    for (const JobSpec &job : parsedJobs())
        checkCgroupKeys(job, ctl ? ctl->name : controller);
    if (marks.empty()) {
        // Quarter points: a query's replay never spans more than a
        // quarter of the run.
        marks = {0, total / 4, total / 2, 3 * (total / 4)};
    }
    marks.push_back(0);
    std::sort(marks.begin(), marks.end());
    marks.erase(std::unique(marks.begin(), marks.end()), marks.end());
    if (marks.back() > total)
        bad("scenario: checkpoint mark beyond the run duration");
}

std::string
ScenarioSpec::canonical() const
{
    std::string out;
    out += "device=" + device;
    out += ";controller=" + controller;
    out += ";model=" + model;
    out += ";qos=" + qos;
    out += ";faults=" + faults;
    char buf[64];
    std::snprintf(buf, sizeof buf, ";seconds=%.17g", seconds);
    out += buf;
    if (warmup) {
        std::snprintf(buf, sizeof buf, ";warmup=%lldns",
                      static_cast<long long>(*warmup));
        out += buf;
    }
    std::snprintf(buf, sizeof buf, ";seed=%" PRIu64, seed);
    out += buf;
    // Emitted only when set, like warmup= above: older canonical
    // strings (and the cache hashes derived from them) must not change.
    if (pagecacheBytes != 0) {
        std::snprintf(buf, sizeof buf, ";pagecache=%" PRIu64,
                      pagecacheBytes);
        out += buf;
    }
    if (dirtyRatioPct != 0.0) {
        std::snprintf(buf, sizeof buf, ";dirty_ratio=%.17g",
                      dirtyRatioPct);
        out += buf;
    }
    for (const std::string &job : jobs)
        out += ";job=" + job;
    // Marks render in bare nanoseconds (the parse grammar's bare unit
    // is ms): changing either would move every scenario hash.
    out += ";marks=";
    for (size_t i = 0; i < marks.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%lld", i ? "," : "",
                      static_cast<long long>(marks[i]));
        out += buf;
    }
    return out;
}

uint64_t
ScenarioSpec::hash() const
{
    const std::string text = canonical();
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<JobSpec>
ScenarioSpec::parsedJobs() const
{
    std::vector<JobSpec> out;
    for (size_t j = 0; j < jobs.size(); ++j) {
        out.push_back(parseJob(jobs[j]));
        // Disjoint regions: separate files.
        out.back().fio.offsetBase = j << 40;
    }
    return out;
}

core::QosParams
defaultQos()
{
    core::QosParams qos;
    qos.vrateMin = 0.5;
    qos.vrateMax = 1.0;
    return qos;
}

void
applyIocostDefaults(controllers::ControllerSpec &spec,
                    const std::string &line,
                    const core::LinearModelConfig &model,
                    const core::QosParams &qos)
{
    const std::string payload = controllers::iocostPayload(line);
    if (!core::parseModelLine(payload))
        spec.iocost.model = core::CostModel::fromConfig(model);
    if (!core::parseQosLine(payload)) {
        // Without QoS keys the parsed QoS is the struct default apart
        // from a period= extension, which is always > 0.
        const sim::Time period = spec.iocost.qos.period;
        spec.iocost.qos = qos;
        if (period != 0)
            spec.iocost.qos.period = period;
    }
}

void
configurePageCache(HostOptions &opts, uint64_t bytes,
                   double dirtyRatioPct)
{
    if (bytes == 0)
        return;
    opts.enablePageCache = true;
    opts.pageCacheConfig.cacheBytes = bytes;
    if (dirtyRatioPct > 0.0) {
        opts.pageCacheConfig.dirtyRatio = dirtyRatioPct / 100.0;
        opts.pageCacheConfig.dirtyBackgroundRatio = dirtyRatioPct / 200.0;
    }
}

ScenarioHost::ScenarioHost(sim::Simulator &sim, const ScenarioSpec &sc,
                           stat::TelemetrySink *sink, bool detail)
{
    core::LinearModelConfig profile;
    auto device = makeNamedDevice(sc.device, sim, &profile);
    model_ = scenarioModel(sc, profile);

    const auto spec = controllers::parseControllerSpec(sc.controller);
    if (!spec)
        bad("bad controller spec \"" + sc.controller + "\"");
    controller_ = *spec;
    resolveController(controller_, sc.controller, model_,
                      scenarioQos(sc));

    HostOptions opts;
    opts.controller = controller_;
    opts.faults = sc.faults;
    opts.installFaultInjector = true;
    opts.telemetrySink = sink;
    opts.telemetryDetail = detail;
    configurePageCache(opts, sc.pagecacheBytes, sc.dirtyRatioPct);
    host_ = std::make_unique<Host>(sim, std::move(device), opts);

    jobs_ = sc.parsedJobs();
    fio_.resize(jobs_.size());
    buffered_.resize(jobs_.size());
    for (size_t j = 0; j < jobs_.size(); ++j) {
        const JobSpec &job = jobs_[j];
        cgs_.push_back(host_->addWorkload(job.name, job.weight));
        checkCgroupKeys(job, controller_.name);
        blk::IoController *ctl = host_->layer().controller();
        if (job.ioMax) {
            static_cast<controllers::BlkThrottle *>(ctl)->setLimits(
                cgs_[j], *job.ioMax);
        }
        if (job.ioLatencyTarget != 0) {
            static_cast<controllers::IoLatency *>(ctl)->setTarget(
                cgs_[j], job.ioLatencyTarget);
        }
        if (!job.buffered) {
            fio_[j] = std::make_unique<workload::FioWorkload>(
                sim, host_->layer(), cgs_[j], job.fio);
            host_->track(*fio_[j]);
            fio_[j]->start();
            continue;
        }
        if (!host_->hasPageCache())
            bad("buffered job \"" + job.name + "\" requires pagecache=");
        workload::BufferedConfig bc;
        bc.name = job.name;
        bc.readFraction = job.fio.readFraction;
        bc.randomFraction = job.fio.randomFraction;
        bc.blockSize = job.fio.blockSize;
        bc.offsetBase = job.fio.offsetBase;
        bc.fsyncEvery = job.fsyncEvery;
        bc.depth = job.fio.iodepth;
        if (job.spanBytes != 0)
            bc.spanBytes = job.spanBytes;
        buffered_[j] = std::make_unique<workload::BufferedWorkload>(
            sim, host_->pageCache(), cgs_[j], bc);
        host_->track(*buffered_[j]);
        buffered_[j]->start();
    }
}

double
ScenarioHost::iops(size_t j) const
{
    return fio_[j] ? fio_[j]->iops() : buffered_[j]->iops();
}

const stat::Histogram &
ScenarioHost::latency(size_t j) const
{
    return fio_[j] ? fio_[j]->latency() : buffered_[j]->latency();
}

void
ScenarioHost::resetStats()
{
    host_->resetStats();
    for (auto &job : fio_) {
        if (job)
            job->resetStats();
    }
    for (auto &job : buffered_) {
        if (job)
            job->resetStats();
    }
}

void
runMeasured(sim::Simulator &sim, ScenarioHost &host,
            const ScenarioSpec &sc)
{
    const sim::Time warmup = sc.warmupTime();
    sim.runUntil(warmup);
    host.resetStats();
    sim.runUntil(warmup + sc.duration());
}

SweepOptions
scenarioSweep(const ScenarioSpec &sc, std::vector<std::string> specs,
              core::LinearModelConfig *model_out)
{
    if (specs.empty())
        bad("empty sweep config list");
    for (const JobSpec &job : sc.parsedJobs()) {
        if (job.buffered) {
            bad("buffered jobs are not supported under --sweep (the "
                "shadow-lane engine has no page cache)");
        }
        if (job.ioMax || job.ioLatencyTarget != 0) {
            bad("io.max and io.latency jobs are not supported under "
                "--sweep (each lane runs its own controller)");
        }
    }
    const core::LinearModelConfig model =
        scenarioModel(sc, profile::namedDevice(sc.device).model);
    if (model_out)
        *model_out = model;

    SweepOptions opts;
    opts.specs = std::move(specs);
    opts.faults = sc.faults;
    opts.makeDevice = [device = sc.device](sim::Simulator &sim) {
        return makeNamedDevice(device, sim);
    };
    // Keyed on the spec line only, so results cannot depend on how
    // configs are partitioned across workers.
    opts.tweakSpec = [model, qos = scenarioQos(sc)](
                         const std::string &line,
                         controllers::ControllerSpec &spec) {
        resolveController(spec, line, model, qos);
    };
    return opts;
}

std::vector<std::unique_ptr<workload::FioWorkload>>
startSweepJobs(sim::Simulator &sim, SweepRunner &runner,
               const std::vector<JobSpec> &jobs)
{
    std::vector<std::unique_ptr<workload::FioWorkload>> running;
    for (const JobSpec &job : jobs) {
        const auto cg = runner.addWorkload(job.name, job.weight);
        running.push_back(std::make_unique<workload::FioWorkload>(
            sim, runner.layer(), cg, job.fio));
        running.back()->start();
    }
    return running;
}

bool
readScenarioFlag(ScenarioSpec &sc, int argc, char **argv, int &i)
{
    static const std::pair<const char *, const char *> kFlags[] = {
        {"--device", "device"},       {"--controller", "controller"},
        {"--model", "model"},         {"--qos", "qos"},
        {"--faults", "faults"},       {"--seconds", "seconds"},
        {"--warmup", "warmup"},       {"--seed", "seed"},
        {"--pagecache", "pagecache"}, {"--dirty-ratio", "dirty_ratio"},
        {"--job", "job"},
    };
    const std::string flag = argv[i];
    for (const auto &[name, key] : kFlags) {
        if (flag != name)
            continue;
        if (i + 1 >= argc)
            bad("needs a value");
        applyScenarioKey(sc, key, argv[++i]);
        return true;
    }
    return false;
}

void
finishScenarioFlags(ScenarioSpec &sc)
{
    if (sc.pagecacheBytes == 0) {
        for (const JobSpec &job : sc.parsedJobs()) {
            if (job.buffered) {
                sc.pagecacheBytes = 512ull << 20;
                break;
            }
        }
    }
    sc.normalize();
}

} // namespace iocost::host
