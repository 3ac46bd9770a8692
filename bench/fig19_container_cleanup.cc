/**
 * @file
 * Figure 19: Container-cleanup failures during the IOLatency ->
 * IOCost migration.
 *
 * Same fleet Monte-Carlo as Fig. 18 under its own seed (the
 * kFig19Spec scenario), reporting the host-critical container
 * agent's cleanup walks that exceed the (scaled) stall threshold.
 * Expected shape: a roughly 3x reduction as the region migrates,
 * taking effect immediately per migrated host.
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
        "Figure 19: Container cleanup failures during the "
        "IOLatency -> IOCost migration",
        "Scaled fleet Monte-Carlo (see DESIGN.md): cleanup walks "
        "over the stall\nthreshold per day. Expected shape: ~3x "
        "fewer after migration.");

    fleet::RunOptions opts;
    opts.jobs = args.jobs;
    opts.shards = args.shards;
    fleet::FleetScenario sc = fleet::FleetScenario::parse(fleet::kFig19Spec);
    if (!args.faults.empty())
        sc.faults = args.faults;
    const fleet::FleetAggregate agg =
        fleet::FleetSim::runScenario(sc, opts);
    const auto &days = agg.days;

    bench::Table table({"Day", "Fleet on IOCost", "Cleanups",
                        "Failures", "Failure rate"});
    unsigned before_fail = 0, before_n = 0;
    unsigned after_fail = 0, after_n = 0;
    for (const auto &d : days) {
        table.row(
            {bench::fmt("%.0f", (double)d.day),
             bench::fmt("%.0f%%", 100.0 * d.fractionOnIoCost),
             bench::fmt("%.0f", (double)d.cleanupAttempts),
             bench::fmt("%.0f", (double)d.cleanupFailures),
             bench::fmt("%.1f%%", 100.0 * d.cleanupFailures /
                                      d.cleanupAttempts)});
        if (d.fractionOnIoCost < 0.05) {
            before_fail += d.cleanupFailures;
            before_n += d.cleanupAttempts;
        } else if (d.fractionOnIoCost > 0.95) {
            after_fail += d.cleanupFailures;
            after_n += d.cleanupAttempts;
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
        std::printf("Reduction: %.1fx (paper: ~3x)\n",
                    before / after);
    } else {
        std::printf("Reduction: complete (paper: ~3x)\n");
    }
    std::printf(
        "Completed-cleanup latency: iolatency p50=%s p99=%s | "
        "iocost p50=%s p99=%s\n",
        bench::fmtTime(
            agg.cleanupTime[fleet::kCtlIoLatency].quantile(0.50))
            .c_str(),
        bench::fmtTime(
            agg.cleanupTime[fleet::kCtlIoLatency].quantile(0.99))
            .c_str(),
        bench::fmtTime(
            agg.cleanupTime[fleet::kCtlIoCost].quantile(0.50))
            .c_str(),
        bench::fmtTime(
            agg.cleanupTime[fleet::kCtlIoCost].quantile(0.99))
            .c_str());
    return 0;
}
