#include "profile/qos_tuner.hh"

#include <algorithm>
#include <memory>

#include "host/host.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "workload/latency_server.hh"
#include "workload/memory_hog.hh"

namespace iocost::profile {

namespace {

/** Build a ResourceControlBench-like server config. */
workload::LatencyServerConfig
rcbConfig(uint64_t working_set)
{
    workload::LatencyServerConfig cfg;
    cfg.name = "rcb";
    cfg.offeredRps = 250;
    cfg.workingSetBytes = working_set;
    cfg.touchPerRequest = 2ull << 20;
    cfg.readsPerRequest = 2;
    cfg.readSize = 16 * 1024;
    cfg.logWriteSize = 4096;
    cfg.maxConcurrency = 96;
    return cfg;
}

host::HostOptions
hostOptions(const device::SsdSpec &spec, double vrate)
{
    host::HostOptions opts;
    opts.controller = "iocost";
    const auto &prof = DeviceProfiler::profileSsd(spec);
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.qos.vrateMin = vrate;
    opts.controller.iocost.qos.vrateMax = vrate; // pinned
    opts.controller.iocost.qos.readLatTarget = 10 * sim::kMsec;
    opts.controller.iocost.qos.writeLatTarget = 10 * sim::kMsec;
    // Tuning measures worst-case interference: keep the debt
    // pacing weak so device-level throttling (vrate) is what
    // protects latency, as in the paper's procedure.
    opts.controller.iocost.qos.debtThreshold = 50 * sim::kMsec;
    opts.controller.iocost.qos.maxUserspaceDelay = 10 * sim::kMsec;
    opts.enableMemory = true;
    opts.memoryConfig.totalBytes = 1ull << 30;
    opts.memoryConfig.swapBytes = 8ull << 30;
    return opts;
}

/** Scenario 1: RCB alone, working set over memory (paging bound). */
double
runAlone(const device::SsdSpec &spec, double vrate,
         double run_seconds, uint64_t seed)
{
    sim::Simulator sim(seed);
    host::Host host(
        sim, std::make_unique<device::SsdModel>(sim, spec),
        hostOptions(spec, vrate));
    const auto cg = host.addWorkload("rcb", 100);
    // Working set 1.25x memory: requests page persistently, and
    // delivered RPS tracks the paging throughput vrate allows.
    workload::LatencyServer rcb(sim, host.layer(), host.mm(), cg,
                                rcbConfig(5ull << 28));
    rcb.prepare([&] { rcb.start(); });
    sim.runUntil(static_cast<sim::Time>(
        0.4 * run_seconds * sim::kSec));
    rcb.resetStats();
    sim.runUntil(static_cast<sim::Time>(
        run_seconds * sim::kSec));
    return rcb.deliveredRps();
}

/** Scenario 2: RCB + leaker; p95 request latency. */
sim::Time
runStacked(const device::SsdSpec &spec, double vrate,
           double run_seconds, uint64_t seed)
{
    sim::Simulator sim(seed);
    host::Host host(
        sim, std::make_unique<device::SsdModel>(sim, spec),
        hostOptions(spec, vrate));
    const auto rcb_cg = host.addWorkload("rcb", 100);
    const auto leak_cg = host.addSystemService("leaker");

    workload::LatencyServer rcb(sim, host.layer(), host.mm(),
                                rcb_cg, rcbConfig(1ull << 29));
    workload::MemoryHogConfig leak;
    leak.mode = workload::HogMode::Leak;
    leak.leakBytesPerSec = 128e6;
    workload::MemoryHog hog(sim, host.mm(), leak_cg, leak);
    host.mm().setOomHandler(
        [&](cgroup::CgroupId cg) {
            if (cg == leak_cg)
                hog.notifyOomKilled();
        });

    rcb.prepare([&] {
        rcb.start();
        hog.start();
    });
    sim.runUntil(static_cast<sim::Time>(
        0.4 * run_seconds * sim::kSec));
    rcb.resetStats();
    sim.runUntil(static_cast<sim::Time>(
        run_seconds * sim::kSec));
    return rcb.latency().quantile(0.95);
}

} // namespace

QosTuneResult
QosTuner::tune(const device::SsdSpec &spec,
               const std::vector<double> &vrates,
               double run_seconds, uint64_t seed, unsigned jobs)
{
    // Warm the profiler cache before the paired pool: hostOptions()
    // reads it from every worker, and on a cold cache they would all
    // wait on its lock while one of them profiles.
    (void)DeviceProfiler::profileSsd(spec);

    QosTuneResult out;
    // Paired CRN across vrates: every point uses seed+11 / seed+23,
    // so the across-vrate deltas compared below are seed-noise-free
    // and independent of the worker layout.
    out.sweep = host::runPaired(
        vrates.size(), jobs, [&](size_t c) {
            QosSweepPoint p;
            p.vrate = vrates[c];
            p.aloneRps =
                runAlone(spec, vrates[c], run_seconds, seed + 11);
            p.stackedP95 = runStacked(spec, vrates[c], run_seconds,
                                      seed + 23);
            return p;
        });

    // vrateMax: smallest vrate delivering >= 92% of the best
    // paging-bound throughput (more budget buys nothing beyond it).
    // If the curve is flat — the device is never paging-bound at
    // this working set — there is no evidence for a ceiling below
    // the model rate, so keep 100%.
    double best_rps = 0.0, worst_rps = 1e300;
    for (const auto &p : out.sweep) {
        best_rps = std::max(best_rps, p.aloneRps);
        worst_rps = std::min(worst_rps, p.aloneRps);
    }
    double vmax = 1.0;
    if (worst_rps < 0.85 * best_rps) {
        vmax = vrates.back();
        for (const auto &p : out.sweep) {
            if (p.aloneRps >= 0.92 * best_rps) {
                vmax = p.vrate;
                break;
            }
        }
    }

    // vrateMin: the smallest vrate whose stacked p95 is within 25%
    // of the best — below it further throttling buys no additional
    // protection.
    sim::Time best_lat = sim::kTimeNever;
    for (const auto &p : out.sweep)
        best_lat = std::min(best_lat, p.stackedP95);
    double vmin = vrates.front();
    for (const auto &p : out.sweep) {
        if (p.stackedP95 <= best_lat + best_lat / 4) {
            vmin = p.vrate;
            break;
        }
    }
    if (vmin > vmax)
        vmin = vmax;

    const auto &prof = DeviceProfiler::profileSsd(spec);
    out.qos.vrateMin = vmin;
    out.qos.vrateMax = std::max(vmax, vmin);
    // Latency targets: a generous multiple of the unloaded medians.
    out.qos.readLatQuantile = 0.90;
    out.qos.readLatTarget =
        std::max<sim::Time>(1 * sim::kMsec, 8 * prof.readLatency);
    out.qos.writeLatQuantile = 0.90;
    out.qos.writeLatTarget =
        std::max<sim::Time>(2 * sim::kMsec, 8 * prof.writeLatency);
    return out;
}

} // namespace iocost::profile
