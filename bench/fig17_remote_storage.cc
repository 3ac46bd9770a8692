/**
 * @file
 * Figure 17: Remote (cloud) block storage protection.
 *
 * Repeats the Fig. 14 experiment inside "VMs" whose block devices
 * are remote volumes: AWS EBS gp3 (3000 IOPS) and io2 (64000 IOPS),
 * and Google Cloud Persistent Disk balanced and SSD. The
 * latency-sensitive workload is ResourceControlBench, stacked with
 * a high-speed memory leaker in a low-priority cgroup; reported is
 * the RPS retention with IOCost enabled in the guest versus no
 * controller. Expected shape: IOCost protects effectively on all
 * four volume types despite their different latency profiles.
 */

#include <memory>

#include "bench/common.hh"
#include "device/device_profiles.hh"
#include "device/remote_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "workload/latency_server.hh"
#include "workload/memory_hog.hh"

namespace {

using namespace iocost;

double
run(const device::RemoteSpec &spec, const std::string &mechanism,
    bool with_leaker)
{
    sim::Simulator sim(1717);
    const auto &prof = profile::DeviceProfiler::profileRemote(spec);

    host::HostOptions opts;
    opts.controller = mechanism;
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    // Remote volumes: latency targets scale with the RTT floor.
    opts.controller.iocost.qos.readLatTarget = 8 * spec.baseRtt;
    opts.controller.iocost.qos.writeLatTarget = 12 * spec.baseRtt;
    opts.controller.iocost.qos.period = 25 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.5;
    opts.controller.iocost.qos.vrateMax = 2.0;
    // Provisioned volumes are easily monopolized by a swap flood;
    // pace debtors aggressively at return-to-userspace.
    opts.controller.iocost.qos.debtThreshold = 5 * sim::kMsec;
    opts.controller.iocost.qos.maxUserspaceDelay = 2 * sim::kSec;
    opts.enableMemory = true;
    opts.memoryConfig.totalBytes = 3ull << 30;
    opts.memoryConfig.swapBytes = 8ull << 30;
    opts.memoryConfig.chargeSwapToOwner = mechanism == "iocost";

    host::Host host(
        sim, std::make_unique<device::RemoteModel>(sim, spec),
        opts);
    const auto rcb_cg = host.addWorkload("rcb", 100);
    const auto leak_cg = host.addSystemService("leaker");

    workload::LatencyServerConfig rcb_cfg;
    rcb_cfg.name = "rcb";
    rcb_cfg.offeredRps = 150;
    rcb_cfg.workingSetBytes = 2ull << 30;
    rcb_cfg.touchPerRequest = 1ull << 20;
    rcb_cfg.readsPerRequest = 2;
    rcb_cfg.readSize = 16 * 1024;
    rcb_cfg.logWriteSize = 4096;
    rcb_cfg.maxConcurrency = 64;
    workload::LatencyServer rcb(sim, host.layer(), host.mm(),
                                rcb_cg, rcb_cfg);

    workload::MemoryHogConfig leak_cfg;
    leak_cfg.mode = workload::HogMode::Leak;
    leak_cfg.leakBytesPerSec = 300e6; // high-speed leak
    workload::MemoryHog leaker(sim, host.mm(), leak_cg, leak_cfg);
    host.mm().setOomHandler([&](cgroup::CgroupId cg) {
        if (cg == leak_cg)
            leaker.notifyOomKilled();
    });

    rcb.prepare([&] {
        rcb.start();
        if (with_leaker)
            leaker.start();
    });
    sim.runUntil(10 * sim::kSec);
    rcb.resetStats();
    sim.runUntil(50 * sim::kSec);
    return rcb.deliveredRps();
}

} // namespace

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    bench::banner(
        "Figure 17: Latency-sensitive RPS with a memory leak on "
        "cloud volumes",
        "Retention = stacked RPS / alone RPS; guests run IOCost vs "
        "no controller.\nExpected shape: iocost retains high RPS on "
        "all four volume types; without\ncontrol the leak's swap "
        "flood starves the workload.");

    bench::Table table({"Volume", "Mechanism", "Alone RPS",
                        "Stacked RPS", "Retention"});
    for (const auto &spec : device::cloudVolumes()) {
        for (const std::string name : {"none", "iocost"}) {
            const double alone = run(spec, name, false);
            const double stacked = run(spec, name, true);
            table.row({spec.name, name, bench::fmt("%.0f", alone),
                       bench::fmt("%.0f", stacked),
                       bench::fmt("%.0f%%",
                                  100.0 * stacked /
                                      std::max(1.0, alone))});
        }
    }
    table.print();
    return 0;
}
