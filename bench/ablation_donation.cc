/**
 * @file
 * Ablation: the §3.6 budget-donation algorithm.
 *
 * A busy cgroup shares the device with a light sibling of equal
 * weight that uses a small fraction of its entitlement. With
 * donation enabled, the busy cgroup absorbs the unused share and
 * total device utilization stays high; with donation disabled, the
 * busy cgroup is pinned near its 50% entitlement whenever the light
 * sibling remains active. The light sibling's latency must not
 * degrade when it donates (rescind is cheap).
 */

#include <memory>

#include "bench/common.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

struct Outcome
{
    double busyIops;
    double lightIops;
    sim::Time lightP95;
};

Outcome
run(bool donation, double light_rate, const std::string &faults)
{
    sim::Simulator sim(2020);
    const device::SsdSpec spec = device::newGenSsd();

    host::HostOptions opts;
    opts.controller = "iocost";
    opts.faults = faults;
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 1.0;
    opts.controller.iocost.qos.vrateMax = 1.0; // pinned: isolate donation
    opts.controller.iocost.donationEnabled = donation;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    const auto busy = host.addWorkload("busy", 100);
    const auto light = host.addWorkload("light", 100);

    workload::FioConfig busy_cfg;
    busy_cfg.iodepth = 64;
    workload::FioWorkload busy_job(sim, host.layer(), busy,
                                   busy_cfg);
    workload::FioConfig light_cfg;
    light_cfg.arrival = workload::Arrival::Rate;
    light_cfg.ratePerSec = light_rate;
    workload::FioWorkload light_job(sim, host.layer(), light,
                                    light_cfg);

    busy_job.start();
    light_job.start();
    sim.runUntil(2 * sim::kSec);
    busy_job.resetStats();
    light_job.resetStats();
    sim.runUntil(12 * sim::kSec);
    return Outcome{busy_job.iops(), light_job.iops(),
                   light_job.latency().quantile(0.95)};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    bench::banner(
        "Ablation: budget donation (§3.6)",
        "Busy cgroup + equal-weight light sibling at various light "
        "loads, vrate pinned.\nExpected: donation lets the busy "
        "cgroup absorb the light sibling's unused share\nwithout "
        "hurting the light sibling's latency; without donation the "
        "busy cgroup is\npinned near 50%.");

    struct Config
    {
        double rate;
        bool donation;
    };
    std::vector<Config> configs;
    for (double rate : {500.0, 2000.0, 8000.0}) {
        for (bool donation : {true, false})
            configs.push_back({rate, donation});
    }

    // Every config runs with the same seed (paired CRN), so the
    // on/off deltas at each load level are seed-noise-free.
    const auto outs = host::runPaired(
        configs.size(), args.jobs, [&](size_t c) {
            return run(configs[c].donation, configs[c].rate,
                       args.faults);
        });

    bench::Table table({"Light load (IOPS)", "Donation",
                        "Busy IOPS", "Light IOPS", "Light p95"});
    for (size_t c = 0; c < configs.size(); ++c) {
        const Outcome &o = outs[c];
        table.row({bench::fmtCount(configs[c].rate),
                   configs[c].donation ? "on" : "off",
                   bench::fmtCount(o.busyIops),
                   bench::fmtCount(o.lightIops),
                   bench::fmtTime(o.lightP95)});
    }
    table.print();
    return 0;
}
