/**
 * @file
 * Figure 13: Dynamic vrate adjustment under model inaccuracy.
 *
 * A saturating 4k random-read workload runs on the new-gen SSD with
 * QoS targeting p90 read latency of 250us. At t=20s the cost-model
 * parameters are halved online (claiming half the real occupancy);
 * vrate must climb to ~200% to restore the issue rate. At t=40s the
 * parameters are set to double the original; vrate must fall to
 * ~50%, after a momentary latency spike.
 */

#include <memory>

#include "bench/common.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "stat/time_series.hh"
#include "workload/fio_workload.hh"

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    using namespace iocost;

    bench::banner(
        "Figure 13: vrate adjustment due to model inaccuracy",
        "Online model updates at t=20s (half capability) and t=40s "
        "(double the\noriginal). Expected shape: vrate ~100 -> "
        "~200 -> ~50 while read IOPS recovers\nto the device rate "
        "each time and p90 latency returns to the 250us target.");

    sim::Simulator sim(1313);
    const device::SsdSpec spec = device::newGenSsd();

    host::HostOptions opts;
    opts.controller = "iocost";
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);
    const core::CostModel base_model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.model = base_model;
    opts.controller.iocost.qos.readLatQuantile = 0.90;
    opts.controller.iocost.qos.readLatTarget = 250 * sim::kUsec;
    opts.controller.iocost.qos.writeLatTarget = 1 * sim::kMsec;
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.25;
    opts.controller.iocost.qos.vrateMax = 4.0;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    const auto cg = host.addWorkload("fio", 100);

    workload::FioConfig cfg;
    cfg.iodepth = 64;
    workload::FioWorkload job(sim, host.layer(), cg, cfg);
    job.start();

    core::IoCost *ctl = host.iocost();

    // Online model updates (io.cost.model writes in production).
    sim.at(20 * sim::kSec, [&] {
        core::CostModel halved = base_model;
        halved.scaleCapability(0.5);
        ctl->setModel(halved);
    });
    sim.at(40 * sim::kSec, [&] {
        core::CostModel doubled = base_model;
        doubled.scaleCapability(2.0);
        ctl->setModel(doubled);
    });

    // Sample read rate and p90 latency once per second.
    stat::TimeSeries iops_series("read-iops");
    stat::TimeSeries p90_series("read-p90-us");
    uint64_t last_completed = 0;
    sim::PeriodicTimer sampler(sim, 1 * sim::kSec, [&] {
        const uint64_t now_completed = job.completed();
        iops_series.record(
            sim.now(),
            static_cast<double>(now_completed - last_completed));
        last_completed = now_completed;
        p90_series.record(
            sim.now(),
            sim::toMicros(host.layer()
                              .stats(cg)
                              .deviceLatency.quantile(0.9)));
    });
    sampler.start();
    sim.runUntil(60 * sim::kSec);

    bench::Table table(
        {"t (s)", "read IOPS", "vrate (%)", "event"});
    const auto &vrates = ctl->vrateSeries().points();
    for (size_t i = 0; i < iops_series.points().size(); ++i) {
        const auto &p = iops_series.points()[i];
        // Find the closest vrate sample.
        double vrate = 100.0;
        for (const auto &v : vrates) {
            if (v.when <= p.when)
                vrate = v.value;
            else
                break;
        }
        std::string event;
        const double t = sim::toSeconds(p.when);
        if (static_cast<int>(t) == 21)
            event = "<- model halved @20s";
        if (static_cast<int>(t) == 41)
            event = "<- model doubled (vs original) @40s";
        table.row({bench::fmt("%.0f", t),
                   bench::fmtCount(p.value),
                   bench::fmt("%.0f", vrate), event});
    }
    table.print();

    // Phase summary: average vrate within each model regime.
    auto mean_between = [&](const stat::TimeSeries &s,
                            double t0, double t1) {
        double sum = 0;
        int n = 0;
        for (const auto &p : s.points()) {
            const double t = sim::toSeconds(p.when);
            if (t >= t0 && t < t1) {
                sum += p.value;
                ++n;
            }
        }
        return n ? sum / n : 0.0;
    };
    bench::Table summary({"Phase", "Mean vrate (%)",
                          "Mean read IOPS"});
    summary.row({"accurate model (5-20s)",
                 bench::fmt("%.0f",
                            mean_between(ctl->vrateSeries(), 5,
                                         20)),
                 bench::fmtCount(mean_between(iops_series, 5, 20))});
    summary.row({"halved model (25-40s)",
                 bench::fmt("%.0f",
                            mean_between(ctl->vrateSeries(), 25,
                                         40)),
                 bench::fmtCount(
                     mean_between(iops_series, 25, 40))});
    summary.row({"doubled model (45-60s)",
                 bench::fmt("%.0f",
                            mean_between(ctl->vrateSeries(), 45,
                                         60)),
                 bench::fmtCount(
                     mean_between(iops_series, 45, 60))});
    summary.print();
    return 0;
}
