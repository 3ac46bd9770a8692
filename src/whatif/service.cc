#include "whatif/service.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "host/device_factory.hh"
#include "sim/fault.hh"

namespace iocost::whatif {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::invalid_argument("whatif: " + what);
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
appendRunStats(std::string &out, const RunStats &rs)
{
    char buf[128];
    out += '{';
    if (rs.isIocost) {
        std::snprintf(buf, sizeof buf, "\"vrate\":%.17g,",
                      rs.vrate);
        out += buf;
    }
    out += "\"jobs\":[";
    for (size_t i = 0; i < rs.jobs.size(); ++i) {
        const JobStats &j = rs.jobs[i];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"ios\":%" PRIu64
            ",\"bytes\":%" PRIu64 ",\"p50_ns\":%" PRId64
            ",\"p99_ns\":%" PRId64 ",\"errors\":%" PRIu64 "}",
            i ? "," : "", escapeJson(j.name).c_str(), j.ios,
            j.bytes, j.p50Ns, j.p99Ns, j.errors);
        out += buf;
    }
    out += "]}";
}

void
appendDelta(std::string &out, const RunStats &base,
            const RunStats &branch)
{
    char buf[160];
    out += '{';
    if (base.isIocost && branch.isIocost) {
        std::snprintf(buf, sizeof buf, "\"vrate\":%.17g,",
                      branch.vrate - base.vrate);
        out += buf;
    }
    out += "\"jobs\":[";
    const size_t n =
        std::min(base.jobs.size(), branch.jobs.size());
    for (size_t i = 0; i < n; ++i) {
        const JobStats &a = base.jobs[i];
        const JobStats &b = branch.jobs[i];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"ios\":%" PRId64
            ",\"bytes\":%" PRId64 ",\"p50_ns\":%" PRId64
            ",\"p99_ns\":%" PRId64 ",\"errors\":%" PRId64 "}",
            i ? "," : "", escapeJson(a.name).c_str(),
            static_cast<int64_t>(b.ios) -
                static_cast<int64_t>(a.ios),
            static_cast<int64_t>(b.bytes) -
                static_cast<int64_t>(a.bytes),
            b.p50Ns - a.p50Ns, b.p99Ns - a.p99Ns,
            static_cast<int64_t>(b.errors) -
                static_cast<int64_t>(a.errors));
        out += buf;
    }
    out += "]}";
}

} // namespace

std::string
diffJson(const host::ScenarioSpec &sc, const Query &q,
         const RunStats &baseline, const RunStats &branch)
{
    char buf[96];
    std::string out = "{\"type\":\"whatif_diff\"";
    std::snprintf(buf, sizeof buf,
                  ",\"scenario\":\"%016" PRIx64 "\"", sc.hash());
    out += buf;
    out += ",\"query\":\"" + escapeJson(q.canonical()) + "\"";
    std::snprintf(buf, sizeof buf, ",\"from_ns\":%lld",
                  static_cast<long long>(q.from));
    out += buf;
    out += ",\"baseline\":";
    appendRunStats(out, baseline);
    out += ",\"branch\":";
    appendRunStats(out, branch);
    out += ",\"delta\":";
    appendDelta(out, baseline, branch);
    out += '}';
    return out;
}

std::string
errorJson(const std::string &what, const Query *q)
{
    std::string out = "{\"type\":\"whatif_error\"";
    if (q)
        out += ",\"query\":\"" + escapeJson(q->canonical()) + "\"";
    return out + ",\"error\":\"" + escapeJson(what) + "\"}";
}

Replica::Replica(const host::ScenarioSpec &sc, BuildOnly)
    : sc_(sc), sim_(sc.seed)
{
    sc_.normalize();
    scenario_ = std::make_unique<host::ScenarioHost>(sim_, sc_);
}

Replica::Replica(const host::ScenarioSpec &sc, bool checkpoints)
    : Replica(sc, BuildOnly{})
{
    host::Host &host = scenario_->host();
    if (checkpoints) {
        for (sim::Time mark : sc_.marks) {
            if (mark > 0)
                sim_.runUntil(mark);
            checkpoints_.emplace_back(mark, host.snapshot());
        }
    }
    sim_.runUntil(sc_.duration());
    baseline_ = collect();
}

size_t
Replica::checkpointBytes() const
{
    return checkpoints_.empty()
               ? 0
               : checkpoints_.front().second.byteSize();
}

void
Replica::apply(const Query &q)
{
    host::Host &host = scenario_->host();
    switch (q.kind) {
      case Query::Kind::Weight: {
        const auto &jobs = scenario_->jobs();
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].name == q.cg) {
                host.tree().setWeight(scenario_->jobCgroup(i),
                                      q.weight);
                return;
            }
        }
        if (q.cg == "workload.slice")
            host.tree().setWeight(host.workload(), q.weight);
        else if (q.cg == "system.slice")
            host.tree().setWeight(host.system(), q.weight);
        else if (q.cg == "hostcritical.slice")
            host.tree().setWeight(host.hostCritical(), q.weight);
        else
            bad("unknown cgroup \"" + q.cg + "\"");
        return;
      }
      case Query::Kind::Device:
        host::applyDeviceProfile(host.device(), q.profile);
        return;
      case Query::Kind::Fault: {
        // Validated at parse time; re-parse to get the windows.
        const sim::FaultPlan plan = sim::FaultPlan::parse(q.fault);
        for (const sim::FaultWindow &w : plan.windows)
            host.faults()->addWindow(w);
        return;
      }
    }
}

RunStats
Replica::collect() const
{
    RunStats rs;
    host::Host &host = scenario_->host();
    const auto &jobs = scenario_->jobs();
    for (size_t i = 0; i < jobs.size(); ++i) {
        const blk::CgroupIoStats &st =
            host.layer().stats(scenario_->jobCgroup(i));
        JobStats js;
        js.name = jobs[i].name;
        js.ios = st.reads + st.writes;
        js.bytes = st.readBytes + st.writeBytes;
        js.p50Ns = st.totalLatency.quantile(0.5);
        js.p99Ns = st.totalLatency.quantile(0.99);
        js.errors = st.errors;
        rs.jobs.push_back(std::move(js));
    }
    if (const core::IoCost *ioc = host.iocost()) {
        rs.isIocost = true;
        rs.vrate = ioc->vrate();
    }
    return rs;
}

RunStats
Replica::branch(const Query &q)
{
    if (checkpoints_.empty())
        bad("branch() on a checkpoint-less replica");
    if (q.from > sc_.duration())
        bad("branch point beyond the run duration");

    // Nearest checkpoint at or before the branch point (the t=0
    // mark always exists).
    const auto *cp = &checkpoints_.front();
    for (const auto &candidate : checkpoints_) {
        if (candidate.first <= q.from)
            cp = &candidate;
    }

    scenario_->host().restore(cp->second);
    if (q.from > cp->first)
        sim_.runUntil(q.from);
    apply(q);
    sim_.runUntil(sc_.duration());
    return collect();
}

RunStats
Replica::cold(const host::ScenarioSpec &sc, const Query &q)
{
    if (q.from > sc.duration())
        bad("branch point beyond the run duration");
    // A fresh host, no snapshot machinery at all: run straight to
    // the branch point, apply, run to the end.
    Replica r(sc, BuildOnly{});
    if (q.from > 0)
        r.sim_.runUntil(q.from);
    r.apply(q);
    r.sim_.runUntil(sc.duration());
    return r.collect();
}

Service::Service(host::ScenarioSpec sc, unsigned threads)
    : sc_(std::move(sc))
{
    sc_.normalize();
    unsigned n = threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Service::~Service()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::future<std::string>
Service::submit(const Query &q)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 "|", sc_.hash());
    Task task;
    task.query = q;
    task.cacheKey = buf + q.canonical();
    std::future<std::string> fut = task.promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(task.cacheKey);
        if (it != cache_.end()) {
            ++cacheHits_;
            task.promise.set_value(it->second);
            return fut;
        }
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
    return fut;
}

std::string
Service::evaluate(const Query &q)
{
    return submit(q).get();
}

std::string
Service::evaluateCold(const host::ScenarioSpec &sc,
                      const Query &q)
{
    host::ScenarioSpec flat = sc;
    flat.normalize();
    Replica baseline(flat, /*checkpoints=*/false);
    const RunStats branch = Replica::cold(flat, q);
    return diffJson(flat, q, baseline.baseline(), branch);
}

uint64_t
Service::cacheHits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cacheHits_;
}

void
Service::workerLoop()
{
    std::unique_ptr<Replica> replica;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            if (tasks_.empty())
                return; // stopping
            task = std::move(tasks_.front());
            tasks_.pop_front();
            // A duplicate may have been enqueued while its twin
            // was still computing; answers are deterministic, so
            // serve the finished twin's result.
            auto it = cache_.find(task.cacheKey);
            if (it != cache_.end()) {
                ++cacheHits_;
                task.promise.set_value(it->second);
                continue;
            }
        }
        std::string result;
        try {
            if (!replica)
                replica = std::make_unique<Replica>(sc_);
            const RunStats branch = replica->branch(task.query);
            result = diffJson(sc_, task.query,
                              replica->baseline(), branch);
        } catch (const std::exception &err) {
            result = errorJson(err.what(), &task.query);
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            cache_.emplace(task.cacheKey, result);
        }
        task.promise.set_value(result);
    }
}

} // namespace iocost::whatif
