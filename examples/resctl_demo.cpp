/**
 * @file
 * resctl-demo-style guided tour (after the paper's open-source
 * artifact of the same name): one host, four phases, a running
 * report of what IOCost does in each.
 *
 *   phase 1  web server alone               (baseline)
 *   phase 2  + batch container at weight 50 (proportional sharing)
 *   phase 3  + memory leak in system.slice  (debt mechanism)
 *   phase 4  leak OOM-killed                (recovery)
 *
 * The host's cgroups get the settings a production machine writes
 * to their io.weight and memory.low files.
 *
 * Build & run:  ./build/examples/resctl_demo
 */

#include <cstdio>
#include <memory>

#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "workload/fio_workload.hh"
#include "workload/latency_server.hh"
#include "workload/memory_hog.hh"

namespace {

using namespace iocost;

void
report(const char *phase, host::Host &host,
       workload::LatencyServer &web, workload::FioWorkload &batch,
       cgroup::CgroupId leak_cg)
{
    core::IoCost *ioc = host.iocost();
    std::printf("%-28s web %5.0f rps (p95 %8s)   batch %7.0f "
                "IOPS   vrate %3.0f%%   leak debt %6.1fms\n",
                phase, web.deliveredRps(),
                (std::to_string(
                     static_cast<long>(sim::toMicros(
                         web.latency().quantile(0.95)))) +
                 "us")
                    .c_str(),
                batch.iops(), 100.0 * ioc->vrate(),
                ioc->debt(leak_cg) / 1e6);
}

} // namespace

int
main()
{
    std::printf("resctl-demo: a guided tour of IOCost on one "
                "host\n\n");

    sim::Simulator sim(99);
    const device::SsdSpec spec = device::oldGenSsd();

    host::HostOptions opts;
    opts.controller = "iocost";
    opts.controller.iocost.model = core::CostModel::fromConfig(
        profile::DeviceProfiler::profileSsd(spec).model);
    opts.controller.iocost.qos.readLatTarget = 2 * sim::kMsec;
    opts.controller.iocost.qos.writeLatTarget = 4 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.5;
    opts.controller.iocost.qos.vrateMax = 1.25;
    opts.enableMemory = true;
    opts.memoryConfig.totalBytes = 3ull << 30;
    opts.memoryConfig.swapBytes = 2ull << 30; // small swap: the
                                              // leak eventually OOMs
    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);

    // What a production host writes to its cgroups' io.weight and
    // memory.low files: web is protected, the system slice is light.
    host.tree().setWeight(host.workload(), 500);
    const auto web_cg = host.addWorkload("web", 200);
    host.mm().setProtection(web_cg, 2ull << 30);
    const auto batch_cg = host.addWorkload("batch", 50);
    host.tree().setWeight(host.system(), 50);
    const auto leak_cg = host.addSystemService("leaky-daemon", 100);

    workload::LatencyServerConfig web_cfg;
    web_cfg.name = "web";
    web_cfg.offeredRps = 300;
    web_cfg.workingSetBytes = 2ull << 30;
    web_cfg.touchPerRequest = 1ull << 20;
    web_cfg.readsPerRequest = 2;
    web_cfg.readSize = 32 * 1024;
    web_cfg.logWriteSize = 8192;
    workload::LatencyServer web(sim, host.layer(), host.mm(),
                                web_cg, web_cfg);

    workload::FioConfig batch_cfg;
    batch_cfg.iodepth = 32;
    batch_cfg.readFraction = 0.5;
    batch_cfg.blockSize = 65536;
    batch_cfg.offsetBase = 1ull << 40;
    workload::FioWorkload batch(sim, host.layer(), batch_cg,
                                batch_cfg);

    workload::MemoryHogConfig leak_cfg;
    leak_cfg.mode = workload::HogMode::Leak;
    leak_cfg.leakBytesPerSec = 400e6;
    workload::MemoryHog leaker(sim, host.mm(), leak_cg, leak_cfg);
    unsigned kills = 0;
    host.mm().setOomHandler([&](cgroup::CgroupId cg) {
        if (cg == leak_cg) {
            ++kills;
            leaker.stop(); // demo: do not restart
            leaker.notifyOomKilled();
        }
    });

    auto run_phase = [&](const char *label, sim::Time seconds) {
        web.resetStats();
        batch.resetStats();
        sim.runUntil(sim.now() + seconds * sim::kSec);
        report(label, host, web, batch, leak_cg);
    };

    web.prepare([&] { web.start(); });
    sim.runUntil(2 * sim::kSec);

    run_phase("phase 1: web alone", 10);

    batch.start();
    run_phase("phase 2: + batch (w=50)", 10);

    leaker.start();
    run_phase("phase 3: + memory leak", 25);

    // By now swap has filled or the OOM killer fired.
    run_phase("phase 4: after the dust", 10);
    std::printf("\nleaky-daemon OOM kills: %u\n", kills);
    std::printf("io.stat (web):  %s\n",
                host.iocost()->statLine(web_cg).c_str());
    std::printf("io.stat (leak): %s\n",
                host.iocost()->statLine(leak_cg).c_str());
    return 0;
}
