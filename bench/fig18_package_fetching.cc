/**
 * @file
 * Figure 18: Package-fetching failures during the IOLatency ->
 * IOCost migration.
 *
 * Every simulated host-day, a system-slice package fetcher writes a
 * (scaled) package to disk under a deadline while the main workload
 * hammers the device; the host runs IOLatency before its staggered
 * migration day and IOCost after. Daily failure counts across the
 * fleet (the kFig18Spec scenario) reproduce the paper's shape: the
 * failure rate steps down several-fold as the region migrates
 * (paper: ~10x).
 */

#include "bench/common.hh"
#include "fleet/fleet_sim.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;

    // Results are byte-identical for any --jobs/--shards value; the
    // default uses every hardware thread.
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::banner(
        "Figure 18: Package fetching failures during the "
        "IOLatency -> IOCost migration",
        "Scaled fleet Monte-Carlo (see DESIGN.md): failures/day as "
        "hosts migrate.\nExpected shape: high plateau before, "
        "roughly 10x lower after.");

    fleet::RunOptions opts;
    opts.jobs = args.jobs;
    opts.shards = args.shards;
    fleet::FleetScenario sc = fleet::FleetScenario::parse(fleet::kFig18Spec);
    if (!args.faults.empty())
        sc.faults = args.faults;
    const fleet::FleetAggregate agg =
        fleet::FleetSim::runScenario(sc, opts);
    const auto &days = agg.days;

    bench::Table table({"Day", "Fleet on IOCost", "Fetches",
                        "Failures", "Failure rate"});
    unsigned before_fail = 0, before_n = 0;
    unsigned after_fail = 0, after_n = 0;
    for (const auto &d : days) {
        table.row(
            {bench::fmt("%.0f", (double)d.day),
             bench::fmt("%.0f%%", 100.0 * d.fractionOnIoCost),
             bench::fmt("%.0f", (double)d.fetchAttempts),
             bench::fmt("%.0f", (double)d.fetchFailures),
             bench::fmt("%.1f%%", 100.0 * d.fetchFailures /
                                      d.fetchAttempts)});
        if (d.fractionOnIoCost < 0.05) {
            before_fail += d.fetchFailures;
            before_n += d.fetchAttempts;
        } else if (d.fractionOnIoCost > 0.95) {
            after_fail += d.fetchFailures;
            after_n += d.fetchAttempts;
        }
    }
    table.print();

    const double before =
        before_n ? 100.0 * before_fail / before_n : 0.0;
    const double after = after_n ? 100.0 * after_fail / after_n
                                 : 0.0;
    std::printf("Pre-migration failure rate:  %.1f%%\n", before);
    std::printf("Post-migration failure rate: %.1f%%\n", after);
    if (after > 0) {
        std::printf("Reduction: %.1fx (paper: ~10x)\n",
                    before / after);
    } else {
        std::printf("Reduction: complete (paper: ~10x)\n");
    }
    std::printf(
        "Completed-fetch latency: iolatency p50=%s p99=%s | "
        "iocost p50=%s p99=%s\n",
        bench::fmtTime(
            agg.fetchTime[fleet::kCtlIoLatency].quantile(0.50))
            .c_str(),
        bench::fmtTime(
            agg.fetchTime[fleet::kCtlIoLatency].quantile(0.99))
            .c_str(),
        bench::fmtTime(
            agg.fetchTime[fleet::kCtlIoCost].quantile(0.50))
            .c_str(),
        bench::fmtTime(
            agg.fetchTime[fleet::kCtlIoCost].quantile(0.99))
            .c_str());
    return 0;
}
