/**
 * @file
 * Figure 3: Device heterogeneity across the fleet.
 *
 * Profiles the eight fleet SSD models (A-H) with the fio-equivalent
 * saturating workloads and reports, per device, the random and
 * sequential read/write IOPS (left axis of the paper's figure) and
 * the read/write latency (right axis).
 */

#include "bench/common.hh"
#include "device/device_profiles.hh"
#include "profile/device_profiler.hh"

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    using namespace iocost;

    bench::banner(
        "Figure 3: Device heterogeneity across the fleet",
        "Profiled sustainable peak performance of fleet SSD models "
        "A-H.\nExpected shape: H = high IOPS at low latency, G = "
        "low IOPS at relatively low\nlatency, A = moderate IOPS "
        "with higher latency; wide spread overall.");

    bench::Table table({"Device", "RandRd IOPS", "SeqRd IOPS",
                        "RandWr IOPS", "SeqWr IOPS", "Rd lat",
                        "Wr lat", "Rd BW", "Wr BW"});
    for (const auto &spec : device::fleetSsds()) {
        const auto &p = profile::DeviceProfiler::profileSsd(spec);
        table.row({spec.name, bench::fmtCount(p.randReadIops),
                   bench::fmtCount(p.seqReadIops),
                   bench::fmtCount(p.randWriteIops),
                   bench::fmtCount(p.seqWriteIops),
                   bench::fmtTime(p.readLatency),
                   bench::fmtTime(p.writeLatency),
                   bench::fmtBps(p.model.rbps),
                   bench::fmtBps(p.model.wbps)});
    }
    table.print();

    std::printf("Each profile doubles as the device's iocost model "
                "configuration\n(io.cost.model format: rbps/rseqiops/"
                "rrandiops/wbps/wseqiops/wrandiops).\n");
    return 0;
}
