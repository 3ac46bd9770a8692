/**
 * @file
 * Figure 14: Memory-management awareness.
 *
 * A latency-sensitive web server (workload slice, guaranteed
 * resources) is stacked with a leaking process in the system slice.
 * The leak drives reclaim: swap-out writes charged to the leaker,
 * page-in reads for the server's faulted pages, and eventually an
 * OOM kill. Reported is the server's requests-per-second retention
 * versus running alone, on the old-gen and new-gen SSDs. The
 * paper's result: bfq collapses (no latency control or MM
 * integration), mq-deadline isolates poorly, iolatency does
 * moderately well, and iocost keeps the server above ~80%.
 */

#include <memory>

#include "bench/common.hh"
#include "controllers/io_latency.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "workload/latency_server.hh"
#include "workload/memory_hog.hh"

namespace {

using namespace iocost;

double
run(const std::string &mechanism, const device::SsdSpec &spec,
    bool with_leaker)
{
    sim::Simulator sim(1414);

    host::HostOptions opts;
    opts.controller = mechanism;
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.qos.readLatTarget = 2 * sim::kMsec;
    opts.controller.iocost.qos.writeLatTarget = 4 * sim::kMsec;
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.5;
    opts.controller.iocost.qos.vrateMax = 2.0;
    opts.enableMemory = true;
    opts.memoryConfig.totalBytes = 3ull << 30;
    opts.memoryConfig.swapBytes = 8ull << 30;
    // Only MM-integrated controllers get owner-charged swap IO
    // (cgroup writeback); the rest see root-attributed kswapd IO.
    opts.memoryConfig.chargeSwapToOwner =
        mechanism == "iocost" || mechanism == "iolatency";

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    const auto web_cg = host.addWorkload("web", 100);
    const auto leak_cg = host.addSystemService("leaky-service");

    if (mechanism == "iolatency") {
        auto *iolat = dynamic_cast<controllers::IoLatency *>(
            host.layer().controller());
        iolat->setTarget(web_cg, 2 * sim::kMsec);
    }

    workload::LatencyServerConfig web_cfg;
    web_cfg.name = "web";
    web_cfg.offeredRps = 400;
    web_cfg.workingSetBytes = 2ull << 30; // 2 GB of 3 GB
    web_cfg.touchPerRequest = 2ull << 20;
    web_cfg.readsPerRequest = 3;
    web_cfg.readSize = 32 * 1024;
    web_cfg.logWriteSize = 8192;
    web_cfg.maxConcurrency = 48;
    workload::LatencyServer web(sim, host.layer(), host.mm(),
                                web_cg, web_cfg);

    workload::MemoryHogConfig leak_cfg;
    leak_cfg.mode = workload::HogMode::Leak;
    leak_cfg.leakBytesPerSec = 400e6;
    workload::MemoryHog leaker(sim, host.mm(), leak_cg, leak_cfg);
    host.mm().setOomHandler([&](cgroup::CgroupId cg) {
        if (cg == leak_cg)
            leaker.notifyOomKilled();
    });

    web.prepare([&] {
        web.start();
        if (with_leaker)
            leaker.start();
    });
    sim.runUntil(10 * sim::kSec);
    web.resetStats();
    sim.runUntil(70 * sim::kSec);
    return web.deliveredRps();
}

} // namespace

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    bench::banner(
        "Figure 14: RPS of a latency-sensitive web server stacked "
        "with a memory leak",
        "Retention = stacked RPS / alone RPS per mechanism and "
        "device.\nExpected shape: bfq worst (near-total loss), "
        "mq-deadline poor, iolatency\nmoderate, iocost >= ~80%.");

    bench::Table table({"Device", "Mechanism", "Alone RPS",
                        "Stacked RPS", "Retention"});
    for (const device::SsdSpec &spec :
         {device::oldGenSsd(), device::newGenSsd()}) {
        for (const std::string name :
             {"mq-deadline", "bfq", "iolatency", "iocost"}) {
            const double alone = run(name, spec, false);
            const double stacked = run(name, spec, true);
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
