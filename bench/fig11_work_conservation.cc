/**
 * @file
 * Figure 11: Work conservation.
 *
 * Same stack as Fig. 10 but the high-priority workload now issues
 * 4k random reads with 100us think time after each completion, so
 * it cannot use the whole device. A work-conserving controller lets
 * the low-priority workload soak up the slack without wrecking the
 * high-priority latency. The paper's result: bfq gives the most
 * low-priority throughput but with ~250us average / ~1ms stddev
 * high-priority latency; blk-throttle controls latency but pins the
 * low-priority workload at its static cap; iolatency and iocost
 * both conserve work while holding latency.
 */

#include "bench/spec_table.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::banner(
        "Figure 11: Work conservation",
        "High-priority 100us-think-time reader + low-priority load "
        "shedder, weights 2:1.\nExpected shape: low-priority soaks "
        "up slack under bfq/iolatency/iocost but is\npinned by "
        "blk-throttle; bfq's high-priority latency is noisy (large "
        "stddev).");

    const std::string base =
        "device=oldgen;seed=1111;seconds=20;warmup=5s;controller=";
    // High priority: closed loop, 100us think time.
    const std::string hi =
        ";job=high-priority:weight=200:thinktime=100us:depth=1";
    // Low priority: the p50<200us load shedder from Fig. 10; it
    // should expand into all slack capacity.
    const std::string lo =
        ";job=low-priority:weight=100:latency_target=200us:depth=16";
    // blk-throttle and iolatency keep Fig. 10's limits and targets.
    bench::printRows(
        args,
        {"Mechanism", "Hi IOPS", "Lo IOPS", "Hi lat mean",
         "Hi lat stddev"},
        {{{"bfq"}, base + "bfq" + hi + lo},
         {{"blk-throttle"}, base + "blk-throttle" + hi +
                                ":io.max=riops=35440.65" + lo +
                                ":io.max=riops=17720.325"},
         {{"iolatency"}, base + "iolatency" + hi +
                             ":io.latency=target=200" + lo +
                             ":io.latency=target=400"},
         {{"iocost"}, base + "iocost rlat=250 wlat=2000 min=25 max=100 "
                             "period=10000" + hi + lo}},
        [](size_t, const host::ScenarioHost &h) {
            return std::vector<std::string>{
                bench::fmtCount(h.iops(0)), bench::fmtCount(h.iops(1)),
                bench::fmt("%.0fus", h.latency(0).mean() / 1000.0),
                bench::fmt("%.0fus", h.latency(0).stddev() / 1000.0)};
        });
    return 0;
}
