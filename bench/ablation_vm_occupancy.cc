/**
 * @file
 * Extension (§6): occupancy pricing for virtual machine monitors.
 *
 * Two equal-share VMs on one hypervisor-scheduled device: a
 * small-random-IO guest (database-ish) and a large-sequential-IO
 * guest (analytics-ish). IOPS-denominated fairness (the
 * PARDA/mClock lineage) equalizes request counts and hands the
 * large-IO guest a multiple of the device time; pricing requests
 * with the IOCost cost model equalizes *device occupancy* — the
 * paper's closing suggestion, demonstrated.
 */

#include <memory>

#include "bench/common.hh"
#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/sweep.hh"
#include "profile/device_profiler.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "vm/hypervisor.hh"

namespace {

using namespace iocost;

struct GuestResult
{
    double iops;
    double occupancyShare;
    sim::Time p99;
};

struct Outcome
{
    GuestResult smallIo;
    GuestResult largeIo;
};

struct Driver
{
    sim::Simulator &sim;
    vm::Hypervisor &hv;
    vm::VmId vm;
    uint32_t size;
    bool random;
    uint64_t cursor = 0;
    sim::Rng rng;
    uint64_t done = 0;
    stat::Histogram lat;

    Driver(sim::Simulator &s, vm::Hypervisor &h, vm::VmId id,
           uint32_t io_size, bool is_random)
        : sim(s), hv(h), vm(id), size(io_size), random(is_random),
          rng(id + 11)
    {}

    void
    issue()
    {
        uint64_t offset;
        if (random) {
            offset = rng.below(1 << 20) * 4096;
        } else {
            offset = (static_cast<uint64_t>(vm + 1) << 40) + cursor;
            cursor += size;
        }
        const sim::Time t0 = sim.now();
        hv.submit(vm, blk::Bio::make(
                          blk::Op::Read, offset, size,
                          cgroup::kRoot,
                          [this, t0](const blk::Bio &) {
                              ++done;
                              lat.record(sim.now() - t0);
                              issue();
                          }));
    }
};

Outcome
run(vm::HvPolicy policy)
{
    sim::Simulator sim(2525);
    device::SsdModel device(sim, device::oldGenSsd());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);
    vm::Hypervisor hv(
        layer, policy,
        core::CostModel::fromConfig(
            profile::DeviceProfiler::profileSsd(
                device::oldGenSsd())
                .model),
        16);

    const auto small = hv.addVm({"db-vm", 100});
    const auto large = hv.addVm({"analytics-vm", 100});
    Driver ds(sim, hv, small, 4096, true);
    Driver dl(sim, hv, large, 262144, false);
    for (int i = 0; i < 16; ++i) {
        ds.issue();
        dl.issue();
    }
    sim.runUntil(20 * sim::kSec);

    const double total =
        hv.occupancy(small) + hv.occupancy(large);
    Outcome out;
    out.smallIo = GuestResult{ds.done / 20.0,
                              hv.occupancy(small) / total,
                              ds.lat.quantile(0.99)};
    out.largeIo = GuestResult{dl.done / 20.0,
                              hv.occupancy(large) / total,
                              dl.lat.quantile(0.99)};
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // Uniform flag set; the hypervisor stack drives the device
    // directly (no host fault plumbing), so --faults is ignored.
    const bench::BenchArgs args = bench::parseArgs(argc, argv);

    bench::banner(
        "Extension (§6): device-occupancy pricing for VM monitors",
        "Equal-share VMs, 4k random vs 256k sequential reads, one "
        "shared device.\nExpected: IOPS pricing over-serves the "
        "large-IO guest; occupancy pricing\nsplits device time "
        "~50/50.");

    const vm::HvPolicy policies[] = {vm::HvPolicy::IopsShares,
                                     vm::HvPolicy::Occupancy};
    // Both policies run as paired CRN runs (same seed) across
    // --jobs workers.
    const auto outs = host::runPaired(
        2, args.jobs, [&](size_t c) { return run(policies[c]); });

    bench::Table table({"Policy", "Guest", "IOPS",
                        "Occupancy share", "p99"});
    for (size_t c = 0; c < 2; ++c) {
        const Outcome &o = outs[c];
        const char *name = policies[c] == vm::HvPolicy::IopsShares
                               ? "iops-shares"
                               : "occupancy";
        table.row({name, "db-vm (4k rand)",
                   bench::fmtCount(o.smallIo.iops),
                   bench::fmt("%.0f%%",
                              100 * o.smallIo.occupancyShare),
                   bench::fmtTime(o.smallIo.p99)});
        table.row({name, "analytics-vm (256k seq)",
                   bench::fmtCount(o.largeIo.iops),
                   bench::fmt("%.0f%%",
                              100 * o.largeIo.occupancyShare),
                   bench::fmtTime(o.largeIo.p99)});
    }
    table.print();
    return 0;
}
