/**
 * @file
 * Figure 12: Fairness with random and sequential workloads on a
 * spinning disk.
 *
 * Two workloads with 2:1 weights issue 4k reads in three pairings:
 * rand/rand, rand/seq (high-weight random), seq/seq. Throughput is
 * normalized to the device's standalone peak for that access
 * pattern. The paper's result: mq-deadline has no notion of
 * fairness; bfq holds 2:1 for seq/seq but misallocates when random
 * IO is involved (sector accounting ignores seek occupancy); iocost
 * holds ~2:1 everywhere by pricing occupancy.
 */

#include "bench/spec_table.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::banner(
        "Figure 12: Fairness on a spinning disk (weights 2:1)",
        "Throughput normalized to each access pattern's standalone "
        "peak.\nExpected shape: iocost ~2:1 in all pairings; bfq "
        "ok for seq/seq only;\nmq-deadline unfair throughout.");

    // Each access pattern's standalone peak: one reader, no control.
    const char *const patterns[] = {"rand", "seq"};
    const std::string solo = "device=hdd;controller=none;seed=1212;"
                             "seconds=30;warmup=0;job=peak:depth=12:pattern=";
    const std::vector<double> peak = bench::runRows(
        args, {solo + patterns[0], solo + patterns[1]},
        [](size_t, const host::ScenarioHost &h) { return h.iops(0); });
    std::printf("Standalone peaks: random %s IOPS, sequential %s "
                "IOPS\n\n",
                bench::fmtCount(peak[0]).c_str(),
                bench::fmtCount(peak[1]).c_str());

    const char *const mechanisms[][2] = {
        {"mq-deadline", "mq-deadline"},
        {"bfq", "bfq"},
        // Tuned vrate ceiling (§3.4): interleaved capacity < profiled
        // single-stream peak.
        {"iocost",
         "iocost rlat=40000 wlat=80000 min=25 max=80 period=100000"},
    };
    // The high- and low-weight readers' patterns.
    const size_t pairings[][2] = {{0, 0}, {0, 1}, {1, 1}};
    std::vector<bench::SpecRow> rows;
    for (const auto &[name, controller] : mechanisms) {
        for (const auto &[hi, lo] : pairings) {
            rows.push_back(
                {{name, std::string(patterns[hi]) + "/" + patterns[lo]},
                 std::string("device=hdd;seed=1213;seconds=60;warmup=10s;"
                             "controller=") +
                     controller +
                     ";job=high-weight:weight=200:depth=16:pattern=" +
                     patterns[hi] +
                     ";job=low-weight:weight=100:depth=16:pattern=" +
                     patterns[lo]});
        }
    }
    bench::printRows(
        args,
        {"Mechanism", "Scenario", "Hi norm. tput", "Lo norm. tput",
         "Norm. ratio (target 2.0)"},
        rows, [&](size_t r, const host::ScenarioHost &h) {
            const double hi = h.iops(0) / peak[pairings[r % 3][0]];
            const double lo = h.iops(1) / peak[pairings[r % 3][1]];
            return std::vector<std::string>{
                bench::fmt("%.2f", hi), bench::fmt("%.2f", lo),
                bench::fmt("%.1f", hi / std::max(1e-9, lo))};
        });
    return 0;
}
