/**
 * @file
 * Ablation: the §3.6 budget-donation algorithm.
 *
 * A busy cgroup shares the device with a light sibling of equal
 * weight that uses a small fraction of its entitlement. With
 * donation enabled, the busy cgroup absorbs the unused share and
 * total device utilization stays high; with donation disabled, the
 * busy cgroup is pinned near its 50% entitlement whenever the light
 * sibling remains active. The light sibling's latency must not
 * degrade when it donates (rescind is cheap).
 */

#include "bench/spec_table.hh"

int
main(int argc, char **argv)
{
    using namespace iocost;
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::banner(
        "Ablation: budget donation (§3.6)",
        "Busy cgroup + equal-weight light sibling at various light "
        "loads, vrate pinned.\nExpected: donation lets the busy "
        "cgroup absorb the light sibling's unused share\nwithout "
        "hurting the light sibling's latency; without donation the "
        "busy cgroup is\npinned near 50%.");

    // vrate is pinned to isolate donation. Every row runs with the
    // same seed (paired CRN), so the on/off deltas at each load level
    // are seed-noise-free.
    std::vector<bench::SpecRow> rows;
    for (double rate : {500.0, 2000.0, 8000.0}) {
        for (bool donation : {true, false}) {
            rows.push_back(
                {{bench::fmtCount(rate), donation ? "on" : "off"},
                 std::string("device=newgen;seed=2020;seconds=10;"
                             "warmup=2s;controller=iocost min=100 "
                             "max=100 period=10000 donation=") +
                     (donation ? "1" : "0") +
                     ";job=busy:depth=64;job=light:rate=" +
                     bench::fmt("%.0f", rate)});
        }
    }
    bench::printRows(
        args,
        {"Light load (IOPS)", "Donation", "Busy IOPS", "Light IOPS",
         "Light p95"},
        rows, [](size_t, const host::ScenarioHost &h) {
            return std::vector<std::string>{
                bench::fmtCount(h.iops(0)), bench::fmtCount(h.iops(1)),
                bench::fmtTime(h.latency(1).quantile(0.95))};
        });
    return 0;
}
