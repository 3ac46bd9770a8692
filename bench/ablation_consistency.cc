/**
 * @file
 * Ablation: the §5 lesson — "SSDs striving for steady throughput
 * and latency are better suited for datacenters".
 *
 * Two devices with the *same average* random-read capability share a
 * latency-sensitive workload and a bulk-writer neighbour: one device
 * is consistent, the other over-performs between firmware hiccups
 * that periodically freeze it (the "high but temporary and
 * unpredictable peak performance" the paper warns about). IOCost's
 * QoS holds the consistent device to tight tails; on the erratic
 * device the hiccups blow through any vrate setting, and the
 * latency-sensitive workload's p99 degrades by an order of
 * magnitude — which is why Meta recommends consistent devices.
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
    double lsIops;
    sim::Time lsP50;
    sim::Time lsP99;
    uint64_t hiccups;
};

Outcome
run(bool erratic, const std::string &faults)
{
    sim::Simulator sim(2323);
    device::SsdSpec spec = device::newGenSsd();
    spec.name = erratic ? "erratic-ssd" : "consistent-ssd";
    if (erratic) {
        // ~17% faster when running, frozen 25ms every ~150ms on
        // average: the same mean service capacity, delivered
        // erratically.
        spec.readBaseRand = spec.readBaseRand * 5 / 6;
        spec.readBaseSeq = spec.readBaseSeq * 5 / 6;
        spec.writeBaseRand = spec.writeBaseRand * 5 / 6;
        spec.writeBaseSeq = spec.writeBaseSeq * 5 / 6;
        spec.hiccupMeanInterval = 150 * sim::kMsec;
        spec.hiccupDuration = 25 * sim::kMsec;
    }

    host::HostOptions opts;
    opts.controller = "iocost";
    opts.faults = faults;
    // Both devices run the *consistent* profile's model — the
    // operator cannot model the hiccups (that is the point).
    opts.controller.iocost.model = core::CostModel::fromConfig(
        profile::DeviceProfiler::profileSsd(device::newGenSsd())
            .model);
    opts.controller.iocost.qos.readLatTarget = 500 * sim::kUsec;
    opts.controller.iocost.qos.writeLatTarget = 2 * sim::kMsec;
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.25;
    opts.controller.iocost.qos.vrateMax = 1.0;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    auto *ssd = dynamic_cast<device::SsdModel *>(&host.device());

    const auto ls = host.addWorkload("latency-sensitive", 200);
    const auto bulk = host.addWorkload("bulk-writer", 100);

    workload::FioConfig ls_cfg;
    ls_cfg.arrival = workload::Arrival::Rate;
    ls_cfg.ratePerSec = 20000;
    workload::FioWorkload ls_job(sim, host.layer(), ls, ls_cfg);

    workload::FioConfig bulk_cfg;
    bulk_cfg.readFraction = 0.0;
    bulk_cfg.blockSize = 256 * 1024;
    bulk_cfg.iodepth = 16;
    workload::FioWorkload bulk_job(sim, host.layer(), bulk,
                                   bulk_cfg);

    ls_job.start();
    bulk_job.start();
    sim.runUntil(2 * sim::kSec);
    ls_job.resetStats();
    sim.runUntil(22 * sim::kSec);

    return Outcome{ls_job.iops(), ls_job.latency().quantile(0.5),
                   ls_job.latency().quantile(0.99),
                   ssd->hiccups()};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    bench::banner(
        "Ablation: device consistency (§5 lesson)",
        "Same-average-capability devices, one erratic (firmware "
        "hiccups): latency-\nsensitive p99 under IOCost. Expected: "
        "the erratic device's tails blow up\ndespite identical "
        "control — consistent devices are better for datacenters.");

    const auto outs = host::runPaired(
        2, args.jobs,
        [&](size_t c) { return run(c == 1, args.faults); });

    bench::Table table({"Device", "LS IOPS", "LS p50", "LS p99",
                        "Hiccups injected"});
    for (size_t c = 0; c < outs.size(); ++c) {
        const Outcome &o = outs[c];
        table.row({c == 1 ? "erratic-ssd" : "consistent-ssd",
                   bench::fmtCount(o.lsIops),
                   bench::fmtTime(o.lsP50),
                   bench::fmtTime(o.lsP99),
                   bench::fmt("%.0f", (double)o.hiccups)});
    }
    table.print();
    return 0;
}
