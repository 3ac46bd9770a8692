/**
 * @file
 * Figure 10: Proportional control.
 *
 * Two latency-sensitive workloads continuously issue 4k random
 * reads while their observed p50 stays under 200us (load-shedding
 * online services). The high-priority workload is configured for
 * 2x the IO of the low-priority one, on the old-gen SSD. The paper's
 * result: bfq and iolatency skew to ~10:1 (weak latency control /
 * no proportional interface), blk-throttle and iocost hit 2:1.
 */

#include "bench/spec_table.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::banner(
        "Figure 10: Proportional control (target hi:lo = 2:1)",
        "Two p50<200us load-shedding 4k random readers on the "
        "old-gen SSD, weights 2:1.\nExpected shape: bfq and "
        "iolatency skew far above 2:1; blk-throttle and iocost\n"
        "hold 2:1.");

    const std::string base =
        "device=oldgen;seed=1010;seconds=20;warmup=5s;controller=";
    const std::string hi =
        ";job=high-priority:weight=200:latency_target=200us:depth=16";
    const std::string lo =
        ";job=low-priority:weight=100:latency_target=200us:depth=16";
    bench::printRows(
        args,
        {"Mechanism", "Hi IOPS", "Lo IOPS", "Ratio (target 2.0)",
         "Hi p50", "Lo p50"},
        {{{"bfq"}, base + "bfq" + hi + lo},
         // Static limits preserving the 2:1 split of a conservative
         // 70% of the profiled random-read IOPS (the paper's setup).
         {{"blk-throttle"}, base + "blk-throttle" + hi +
                                ":io.max=riops=35440.65" + lo +
                                ":io.max=riops=17720.325"},
         // Best-effort attempt at a 2:1 distribution via latency
         // targets (no proportional interface exists).
         {{"iolatency"}, base + "iolatency" + hi +
                             ":io.latency=target=200" + lo +
                             ":io.latency=target=400"},
         {{"iocost"}, base + "iocost rlat=250 wlat=2000 min=25 max=100 "
                             "period=10000" + hi + lo}},
        [](size_t, const host::ScenarioHost &h) {
            return std::vector<std::string>{
                bench::fmtCount(h.iops(0)), bench::fmtCount(h.iops(1)),
                bench::fmt("%.1f", h.iops(0) / std::max(1.0, h.iops(1))),
                bench::fmtTime(h.latency(0).quantile(0.5)),
                bench::fmtTime(h.latency(1).quantile(0.5))};
        });
    return 0;
}
