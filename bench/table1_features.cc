/**
 * @file
 * Table 1: Linux IO control mechanisms and features.
 *
 * Regenerates the paper's capability matrix from the static
 * capability flags each implemented controller reports.
 */

#include "bench/common.hh"
#include "controllers/factory.hh"

int
main(int argc, char **argv)
{
    (void)iocost::bench::parseArgs(argc, argv); // rejects unknown flags
    using namespace iocost;

    bench::banner("Table 1: Linux IO control mechanisms and "
                  "features",
                  "Capability flags reported by each implemented "
                  "mechanism.");

    auto mark = [](bool b) { return b ? "yes" : "no"; };

    bench::Table table({"Mechanism", "Low Overhead",
                        "Work Conserving", "MM-aware",
                        "Proportional Fairness", "cgroup Control"});
    for (const auto &caps : controllers::allCapabilities()) {
        std::string work_conserving = mark(caps.workConserving);
        std::string low_overhead = mark(caps.lowOverhead);
        // The paper marks blk-throttle's overhead and IOLatency's
        // work conservation as "~" (qualified).
        if (caps.name == "blk-throttle")
            low_overhead = "~";
        if (caps.name == "iolatency")
            work_conserving = "~";
        table.row({caps.name, low_overhead, work_conserving,
                   mark(caps.memoryManagementAware),
                   mark(caps.proportionalFairness),
                   mark(caps.cgroupControl)});
    }
    table.print();

    std::printf("Paper Table 1 (for comparison):\n"
                "  kyber, mq-deadline: low-overhead, work-"
                "conserving, no cgroup control\n"
                "  blk-throttle: ~overhead, not work-conserving, "
                "cgroup control\n"
                "  bfq: high overhead, work-conserving, "
                "proportional, cgroup control\n"
                "  iolatency: low-overhead, ~work-conserving, "
                "MM-aware, cgroup control\n"
                "  iocost: all five\n");
    return 0;
}
