/**
 * @file
 * Ablation: journal priority inversion (§3.5, filesystem side).
 *
 * A shared write-ahead journal serializes metadata from every
 * cgroup. A budget-exhausted flooder keeps triggering commits; an
 * innocent service fsyncs small transactions. The debt mechanism
 * (journal IO issued immediately, charged as debt) keeps the
 * innocent fsync fast; the Inversion ablation (journal IO throttled
 * against the committing cgroup's budget) stalls the pipeline and
 * starves every fsync behind it. bfq is included as the
 * no-MM-integration baseline.
 */

#include <memory>

#include "bench/common.hh"
#include "core/iocost.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fs/journal.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

struct Outcome
{
    uint64_t issued;
    uint64_t completed;
    sim::Time p50;
    sim::Time p99;
};

Outcome
run(const std::string &controller, core::DebtMode mode,
    const std::string &faults)
{
    sim::Simulator sim(2424);
    const device::SsdSpec spec = device::oldGenSsd();

    host::HostOptions opts;
    opts.controller = controller;
    opts.faults = faults;
    opts.controller.iocost.model = core::CostModel::fromConfig(
        profile::DeviceProfiler::profileSsd(spec).model);
    opts.controller.iocost.qos.vrateMin = 1.0;
    opts.controller.iocost.qos.vrateMax = 1.0;
    opts.controller.iocost.qos.readLatTarget = 1 * sim::kSec;
    opts.controller.iocost.qos.writeLatTarget = 1 * sim::kSec;
    opts.controller.iocost.debtMode = mode;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    fs::JournalConfig jcfg;
    jcfg.maxTxnBytes = 1 << 20;
    fs::Journal journal(sim, host.layer(), jcfg);

    const auto flooder = host.addWorkload("flooder", 100);
    const auto innocent = host.addWorkload("innocent", 100);

    // Flooder: over-budget open-loop data writes plus a steady
    // metadata stream.
    workload::FioConfig flood;
    flood.readFraction = 0.0;
    flood.arrival = workload::Arrival::Rate;
    flood.ratePerSec = 80000;
    workload::FioWorkload flood_job(sim, host.layer(), flooder,
                                    flood);
    flood_job.start();
    sim::PeriodicTimer meta_flood(sim, 5 * sim::kMsec, [&] {
        journal.logMetadata(flooder, 256 << 10);
    });
    meta_flood.start();

    Outcome out{0, 0, 0, 0};
    stat::Histogram fsync_lat;
    sim::PeriodicTimer fsyncs(sim, 50 * sim::kMsec, [&] {
        journal.logMetadata(innocent, 4096);
        const sim::Time t0 = sim.now();
        ++out.issued;
        journal.fsync(innocent, [&, t0] {
            ++out.completed;
            fsync_lat.record(sim.now() - t0);
        });
    });
    fsyncs.start();

    sim.runUntil(20 * sim::kSec);
    out.p50 = fsync_lat.count() ? fsync_lat.quantile(0.5) : 0;
    out.p99 = fsync_lat.count() ? fsync_lat.quantile(0.99) : 0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    bench::banner(
        "Ablation: journal commit priority inversion (§3.5)",
        "Innocent 4k fsyncs next to a budget-exhausted metadata "
        "flooder sharing the\njournal. Expected: production debt "
        "mode completes every fsync fast; the\ninversion ablation "
        "strands most of them behind throttled commit IO.");

    struct Config
    {
        const char *label;
        const char *controller;
        core::DebtMode mode;
    };
    const Config configs[] = {
        {"iocost (debt)", "iocost", core::DebtMode::Production},
        {"iocost-inversion", "iocost", core::DebtMode::Inversion},
        {"bfq", "bfq", core::DebtMode::Production},
        {"none", "none", core::DebtMode::Production},
    };

    // The four configs run as paired CRN runs (same seed each)
    // across --jobs workers.
    const size_t n = sizeof(configs) / sizeof(configs[0]);
    const auto outs = host::runPaired(
        n, args.jobs, [&](size_t c) {
            return run(configs[c].controller, configs[c].mode,
                       args.faults);
        });

    bench::Table table({"Configuration", "fsyncs issued",
                        "completed", "p50", "p99 (completed)"});
    for (size_t c = 0; c < n; ++c) {
        const Outcome &o = outs[c];
        table.row({configs[c].label,
                   bench::fmt("%.0f", (double)o.issued),
                   bench::fmt("%.0f", (double)o.completed),
                   bench::fmtTime(o.p50), bench::fmtTime(o.p99)});
    }
    table.print();
    return 0;
}
