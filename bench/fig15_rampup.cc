/**
 * @file
 * Figure 15: Ramp-up time in an overcommitted environment.
 *
 * ResourceControlBench is collocated with `stress`, a synthetic
 * consumer that keeps its working set permanently hot. A load
 * controller raises RCB's offered load from 40% to 80% of its peak
 * while holding p95 latency under 75ms; as the load (and thus
 * memory heat) grows, stress's pages must be forced out — which is
 * pure swap IO whose charging policy decides everything. Reported
 * is the time to reach sustained 80% for:
 *
 *   - iocost (production debt mechanism, §3.5)
 *   - bfq
 *   - iocost-root-swap: swap charged to the root, never throttled
 *   - iocost-inversion: swap throttled in the owner's cgroup
 *   - no-stress baselines for iocost and bfq
 *
 * Paper's shape: baseline iocost ramps ~2x faster than baseline
 * bfq; with stress, iocost is ~5x faster than bfq; both broken
 * debt variants are worse than production iocost.
 */

#include <memory>

#include "bench/common.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "workload/latency_server.hh"
#include "workload/memory_hog.hh"

namespace {

using namespace iocost;

constexpr double kPeakRps = 1000.0;
constexpr double kStartRps = 0.40 * kPeakRps;
constexpr double kTargetRps = 0.80 * kPeakRps;
constexpr sim::Time kLatencyCeiling = 75 * sim::kMsec;
constexpr sim::Time kMaxRun = 300 * sim::kSec;

struct Variant
{
    const char *label;
    const char *mechanism;
    core::DebtMode debtMode;
    bool withStress;
};

sim::Time
run(const Variant &v)
{
    sim::Simulator sim(1515);
    const device::SsdSpec spec = device::oldGenSsd();

    host::HostOptions opts;
    opts.controller = v.mechanism;
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.qos.readLatTarget = 2 * sim::kMsec;
    opts.controller.iocost.qos.writeLatTarget = 4 * sim::kMsec;
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.5;
    opts.controller.iocost.qos.vrateMax = 2.0;
    opts.controller.iocost.debtMode = v.debtMode;
    opts.enableMemory = true;
    opts.memoryConfig.totalBytes = 4ull << 30;
    opts.memoryConfig.swapBytes = 16ull << 30;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    const auto rcb_cg = host.addWorkload("rcb", 100);
    const auto stress_cg = host.addWorkload("stress", 100);

    workload::LatencyServerConfig rcb_cfg;
    rcb_cfg.name = "rcb";
    rcb_cfg.offeredRps = kStartRps;
    rcb_cfg.workingSetBytes = 1ull << 30; // 1 GB at idle...
    // ...plus ~2 MB per offered RPS: ~2.6 GB at 80% load, forcing
    // stress's pages out as the ramp proceeds (the paper's dynamic).
    rcb_cfg.workingSetGrowthPerRps = 2ull << 20;
    rcb_cfg.touchPerRequest = 2ull << 20;
    rcb_cfg.allocPerRequest = 512 * 1024;
    rcb_cfg.readsPerRequest = 8;
    rcb_cfg.readSize = 64 * 1024;
    rcb_cfg.serialReads = true;
    rcb_cfg.logWriteSize = 4096;
    rcb_cfg.maxConcurrency = 128;
    workload::LatencyServer rcb(sim, host.layer(), host.mm(),
                                rcb_cg, rcb_cfg);
    // Production protects the latency-sensitive working set with
    // memory.low; the consumer's pages are the ones paged out.
    host.mm().setProtection(rcb_cg, 3ull << 30);

    workload::MemoryHogConfig stress_cfg;
    stress_cfg.mode = workload::HogMode::Stress;
    stress_cfg.workingSetBytes = 5ull << 29; // 2.5 GB, fights RCB
    stress_cfg.touchChunk = 64ull << 20;
    stress_cfg.touchInterval = 10 * sim::kMsec;
    workload::MemoryHog stress(sim, host.mm(), stress_cg,
                               stress_cfg);
    host.mm().setOomHandler([&](cgroup::CgroupId cg) {
        if (cg == stress_cg)
            stress.notifyOomKilled();
    });

    // Proportional load controller: raise the offered load while
    // the p95 stays under the ceiling, back off when it does not;
    // the ramp completes at the first window of sustained 80%.
    sim::Time ramp_done = kMaxRun;
    unsigned ok_windows = 0;
    rcb.setWindowObserver([&](double rps, sim::Time p95) {
        (void)rps;
        double offered = rcb.offeredRps();
        if (p95 <= kLatencyCeiling) {
            offered += 0.03 * kPeakRps;
        } else {
            offered -= 0.05 * kPeakRps;
        }
        offered = std::clamp(offered, kStartRps, kPeakRps);
        rcb.setOfferedRps(offered);

        if (offered >= kTargetRps && p95 <= kLatencyCeiling) {
            if (++ok_windows >= 3 && ramp_done == kMaxRun)
                ramp_done = sim.now();
        } else {
            ok_windows = 0;
        }
    });

    rcb.prepare([&] {
        if (v.withStress)
            stress.start();
        // Let stress allocate, then start serving and ramping.
        sim.after(2 * sim::kSec, [&] { rcb.start(); });
    });
    while (sim.now() < kMaxRun && ramp_done == kMaxRun)
        sim.runUntil(sim.now() + 1 * sim::kSec);
    return ramp_done;
}

} // namespace

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    bench::banner(
        "Figure 15: Ramp-up time 40% -> 80% load in an "
        "overcommitted environment",
        "RCB + `stress` under a p95 < 75ms load controller.\n"
        "Expected shape: iocost ramps fastest; both broken swap-"
        "charging variants and bfq\nare slower; no-stress baselines "
        "bound from below.");

    const Variant variants[] = {
        {"iocost (no stress)", "iocost",
         core::DebtMode::Production, false},
        {"bfq (no stress)", "bfq", core::DebtMode::Production,
         false},
        {"iocost", "iocost", core::DebtMode::Production, true},
        {"bfq", "bfq", core::DebtMode::Production, true},
        {"iocost-root-swap", "iocost", core::DebtMode::RootCharge,
         true},
        {"iocost-inversion", "iocost", core::DebtMode::Inversion,
         true},
    };

    bench::Table table({"Configuration", "Ramp-up time"});
    for (const Variant &v : variants) {
        const sim::Time t = run(v);
        table.row({v.label, t >= kMaxRun
                                ? std::string("did not complete")
                                : bench::fmtTime(t)});
    }
    table.print();
    return 0;
}
