/**
 * @file
 * Seeded mutation fuzz over the two scenario grammars: the fleet's
 * (fleet::FleetScenario::parse) and the single host's
 * (host::ScenarioSpec::parse, which also reads the job, controller,
 * io.cost and fault-plan grammars its keys hold). Every mutant must
 * parse or throw std::invalid_argument, and every accepted fleet
 * spec's canonical() must parse again. The IOCOST_SANITIZE build runs
 * this file under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleet/fleet_scenario.hh"
#include "host/scenario.hh"
#include "mutation.hh"
#include "sim/rng.hh"

namespace {

using namespace iocost;

/** Insertions that reach the grammars' separators, units, numeric
 *  edges and device vocabulary. */
const char *const kTokens[] = {
    "=",   ";",   ",",    ":",    "..",  "@",    "+",    " ",
    "\n",  "#",   "0",    "-1",   "1.5", "1e308", "nan", "inf",
    "K",   "G",   "ns",   "ms",   "s",   "hdd",  "gp3",  "Z",
    "4294967297", "99999999999999999999", "18446744073709551616",
};

/** Fleet specs: the Fig. 18/19 presets, bench/e2e's fleet10k
 *  scenario and specs the fleet tests parse. */
const char *const kFleetCorpus[] = {
    fleet::kFig18Spec,
    fleet::kFig19Spec,
    "hosts=10000 days=2 seed=1 migration=0..1:50"
    " devices=A:25,D:25,G:25,H:25"
    " workloads=mixed:50,writeheavy:30,readheavy:20"
    " slice=10ms warmup=10ms fetch=64K fetch_deadline=5ms"
    " cleanup=4 cleanup_io=4K cleanup_deadline=2ms",
    "hosts=500 days=12 seed=9 shards=16 "
    "migration=2..5:40,6..10:60 devices=A:70,H:30 "
    "workloads=bursty:50,mixed:50 faults=err@1s+100ms=0.5 "
    "slice=20ms warmup=30ms fetch=128K fetch_deadline=10ms",
    "hosts=4 days=3 seed=91 migration=1..3 devices=oldgen,newgen "
    "warmup=300ms slice=250ms fetch=2M cleanup=40 "
    "faults=lat@350ms+100ms=3,err@350ms+150ms=0.08,timeout=40ms",
    "hosts=6 days=3 seed=77 devices=A:50,H:50 "
    "workloads=mixed:60,bursty:40 sweep=iolatency;iocost "
    "pagecache=64M dirty_ratio=20",
    "# a scenario file\n"
    "hosts=12 days=6   # trailing comment\n"
    "devices=enterprise,B workloads=buffered\n",
};

/** Host specs from the scenario, what-if and JSON tests, and
 *  fig10_proportional's blk-throttle and iolatency rows. */
const char *const kHostCorpus[] = {
    "",
    "device=newgen;seconds=0.4;marks=100ms,200ms;seed=11",
    "seconds=2;pagecache=64M;dirty_ratio=25;"
    "job=web:weight=200:depth=16;"
    "job=b:weight=100:buffered=1:bs=65536:fsync=4:span=8388608",
    "device=oldgen;faults=lat@1s+500ms=4,err@2s+1s=0.01;"
    "seconds=4;marks=500ms,1s,2500ms;seed=7",
    "controller=iocost rlat=250 wlat=2000 min=25 max=100 "
    "period=50000;qos=min=40 max=90;seconds=1.5",
    "device=gp3;controller=iolatency;seconds=1;"
    "job=a:rate=500:rw=write:pattern=seq:bs=64K;job=b:rw=mixed",
    "device=hdd;model=rbps=174019176 rseqiops=41353 "
    "rrandiops=370 wbps=178075866 wseqiops=42253 wrandiops=378;"
    "seconds=3",
    "device=oldgen;seed=1010;seconds=20;warmup=5s;controller=blk-throttle;"
    "job=high-priority:weight=200:latency_target=200us:depth=16:"
    "io.max=riops=35440.65;"
    "job=low-priority:weight=100:latency_target=200us:depth=16:"
    "io.max=riops=17720.325",
    "device=oldgen;seed=1010;seconds=20;warmup=5s;controller=iolatency;"
    "job=high-priority:weight=200:latency_target=200us:depth=16:"
    "io.latency=target=200;"
    "job=low-priority:weight=100:latency_target=200us:depth=16:"
    "io.latency=target=400",
};

constexpr int kMutantsPerInput = 3000;

TEST(ScenarioFuzz, FleetMutantsParseOrThrowAndCanonicalReparses)
{
    sim::Rng rng(0xF1EE7u);
    uint64_t parsed = 0, rejected = 0;
    for (const char *spec : kFleetCorpus) {
        ASSERT_TRUE(test::accepts(
            [&] { (void)fleet::FleetScenario::parse(spec); }, spec));
        for (int i = 0; i < kMutantsPerInput; ++i) {
            const std::string m = test::mutate(spec, rng, kTokens);
            fleet::FleetScenario sc;
            if (!test::accepts(
                    [&] { sc = fleet::FleetScenario::parse(m); }, m)) {
                ++rejected;
                continue;
            }
            ++parsed;
            const std::string canonical = sc.canonical();
            EXPECT_TRUE(test::accepts(
                [&] { (void)fleet::FleetScenario::parse(canonical); },
                canonical))
                << "canonical of accepted mutant: " << m;
        }
    }
    // Both outcomes must be common, or the mutations are not
    // reaching the parser's interesting paths.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

TEST(ScenarioFuzz, HostMutantsParseOrThrow)
{
    sim::Rng rng(0x5CE7A210u);
    uint64_t parsed = 0, rejected = 0;
    for (const char *spec : kHostCorpus) {
        ASSERT_TRUE(test::accepts(
            [&] { (void)host::ScenarioSpec::parse(spec); }, spec));
        for (int i = 0; i < kMutantsPerInput; ++i) {
            const std::string m = test::mutate(spec, rng, kTokens);
            if (test::accepts(
                    [&] { (void)host::ScenarioSpec::parse(m); }, m))
                ++parsed;
            else
                ++rejected;
        }
    }
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

} // namespace
