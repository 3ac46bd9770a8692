/**
 * @file
 * Multi-config (sweep) execution: common-random-numbers semantics.
 *
 * Covers the single-pass shadow-lane runner (host::SweepRunner /
 * runSweep), the paired-CRN pool (host::runPaired), the fleet sweep
 * (FleetSim::runScenarioSweep), the period=/spec plumbing, scenario
 * sweep= parsing, and the sweep JSON round trip. The invariants:
 *
 *  - a K = 1 top-level sweep is byte-identical to a plain Host;
 *  - per-config results are identical for any config order and any
 *    --jobs/--shards partitioning;
 *  - the shared device/fault stream fires identically in every lane
 *    (same error/failure counts) while controller-induced queueing
 *    stays per-lane (latency differs between configs).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_aggregate.hh"
#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "sim/fifo_ring.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

// ------------------------------------------------------------------
// Spec grammar extensions.
// ------------------------------------------------------------------

TEST(SweepSpec, PeriodExtensionParses)
{
    const auto spec = controllers::parseControllerSpec(
        "iocost rlat=250 wlat=2000 min=25 max=100 period=50000");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->iocost.qos.period, 50 * sim::kMsec);
    // The qos payload landed too (period did not eat it).
    EXPECT_EQ(spec->iocost.qos.readLatTarget, 250 * sim::kUsec);
    EXPECT_DOUBLE_EQ(spec->iocost.qos.vrateMin, 0.25);

    // period= alone leaves the default qos otherwise untouched.
    const auto bare =
        controllers::parseControllerSpec("iocost period=2000");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->iocost.qos.period, 2 * sim::kMsec);

    EXPECT_FALSE(controllers::parseControllerSpec("iocost period=x")
                     .has_value());
    EXPECT_FALSE(
        controllers::parseControllerSpec("iocost period=-5")
            .has_value());
}

TEST(SweepSpec, IocostPayloadStripsExtensions)
{
    EXPECT_EQ(controllers::iocostPayload(
                  "iocost min=25 donation=0 debt=production "
                  "period=2000 max=100"),
              "min=25 max=100");
    EXPECT_EQ(controllers::iocostPayload("iocost period=2000"), "");
    EXPECT_EQ(controllers::iocostPayload("iolatency window=5"), "");
}

// ------------------------------------------------------------------
// Shadow-lane sweep: CRN semantics on the host stack.
// ------------------------------------------------------------------

struct LaneCounters
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t errors = 0;
    uint64_t retries = 0;
    uint64_t failures = 0;
    sim::Time p50 = 0;
    sim::Time p99 = 0;

    bool
    operator==(const LaneCounters &o) const
    {
        return reads == o.reads && writes == o.writes &&
               errors == o.errors && retries == o.retries &&
               failures == o.failures && p50 == o.p50 &&
               p99 == o.p99;
    }
};

host::SweepOptions
baseOptions(std::vector<std::string> specs,
            const std::string &faults = "")
{
    host::SweepOptions opts;
    opts.specs = std::move(specs);
    opts.faults = faults;
    opts.makeDevice = [](sim::Simulator &sim) {
        return std::make_unique<device::SsdModel>(
            sim, device::newGenSsd());
    };
    return opts;
}

/** Rate-arrival reader, stopped early so every lane drains. */
void
sweepBody(sim::Simulator &sim, host::SweepRunner &runner)
{
    runner.addWorkload("app", 200);
    workload::FioConfig cfg;
    cfg.arrival = workload::Arrival::Rate;
    cfg.ratePerSec = 5000;
    workload::FioWorkload job(sim, runner.layer(),
                              runner.workloadCgroups()[0].second,
                              cfg);
    job.start();
    sim.runUntil(600 * sim::kMsec);
    job.stop();
    sim.runUntil(1500 * sim::kMsec);
}

/**
 * Drain every lane past the stop point, then check that the shared
 * log retired every id: a leftover id is a missed release (a doubled
 * one panics inside the log).
 */
void
expectLogDrained(sim::Simulator &sim, host::SweepRunner &runner)
{
    sim.runUntil(sim.now() + 30 * sim::kSec);
    EXPECT_EQ(runner.serviceLog().live(), 0u);
}

LaneCounters
collectLane(host::SweepRunner &runner, size_t lane)
{
    const auto cg = runner.workloadCgroups()[0].second;
    const blk::CgroupIoStats &st = runner.laneLayer(lane).stats(cg);
    LaneCounters out;
    out.reads = st.reads;
    out.writes = st.writes;
    out.errors = st.errors;
    out.retries = st.retries;
    out.failures = st.failures;
    if (st.totalLatency.count() > 0) {
        out.p50 = st.totalLatency.quantile(0.50);
        out.p99 = st.totalLatency.quantile(0.99);
    }
    return out;
}

std::vector<LaneCounters>
runSpecs(std::vector<std::string> specs, unsigned jobs,
         const std::string &faults = "")
{
    return host::runSweep(
        baseOptions(std::move(specs), faults), 99, jobs,
        [](sim::Simulator &sim, host::SweepRunner &runner) {
            sweepBody(sim, runner);
            expectLogDrained(sim, runner);
        },
        [](host::SweepRunner &runner, size_t lane, size_t) {
            return collectLane(runner, lane);
        });
}

const char *kSpecA = "iocost min=100 max=100";
const char *kSpecB = "iocost min=5 max=5";
const char *kSpecC = "iolatency";

TEST(SweepRunner, K1TopLevelDelegatesToPlainHost)
{
    // The degenerate sweep must be the plain stack, byte for byte.
    sim::Simulator plain_sim(99);
    host::HostOptions ho;
    ho.controller =
        *controllers::parseControllerSpec(kSpecA);
    host::Host host(plain_sim,
                    std::make_unique<device::SsdModel>(
                        plain_sim, device::newGenSsd()),
                    std::move(ho));
    const auto cg = host.addWorkload("app", 200);
    {
        workload::FioConfig cfg;
        cfg.arrival = workload::Arrival::Rate;
        cfg.ratePerSec = 5000;
        workload::FioWorkload job(plain_sim, host.layer(), cg, cfg);
        job.start();
        plain_sim.runUntil(600 * sim::kMsec);
        job.stop();
        plain_sim.runUntil(1500 * sim::kMsec);
    }
    const blk::CgroupIoStats &st = host.layer().stats(cg);

    sim::Simulator sweep_sim(99);
    host::SweepRunner runner(sweep_sim, baseOptions({kSpecA}));
    EXPECT_FALSE(runner.shadow());
    sweepBody(sweep_sim, runner);
    const LaneCounters lane = collectLane(runner, 0);

    EXPECT_EQ(lane.reads, st.reads);
    EXPECT_EQ(lane.writes, st.writes);
    EXPECT_EQ(lane.failures, st.failures);
    EXPECT_EQ(lane.p50, st.totalLatency.quantile(0.50));
    EXPECT_EQ(lane.p99, st.totalLatency.quantile(0.99));
}

TEST(SweepRunner, SingletonGroupKeepsShadowSemantics)
{
    host::SweepOptions opts = baseOptions({kSpecA});
    opts.forceShadow = true;
    sim::Simulator sim(7);
    host::SweepRunner runner(sim, std::move(opts));
    EXPECT_TRUE(runner.shadow());
}

TEST(SweepRunner, ConfigOrderInvariance)
{
    const auto fwd = runSpecs({kSpecA, kSpecB, kSpecC}, 1);
    const auto rev = runSpecs({kSpecC, kSpecB, kSpecA}, 1);
    ASSERT_EQ(fwd.size(), 3u);
    ASSERT_EQ(rev.size(), 3u);
    EXPECT_TRUE(fwd[0] == rev[2]);
    EXPECT_TRUE(fwd[1] == rev[1]);
    EXPECT_TRUE(fwd[2] == rev[0]);
}

TEST(SweepRunner, JobsPartitionInvariance)
{
    const auto one = runSpecs({kSpecA, kSpecB, kSpecC}, 1);
    const auto three = runSpecs({kSpecA, kSpecB, kSpecC}, 3);
    const auto two = runSpecs({kSpecA, kSpecB, kSpecC}, 2);
    ASSERT_EQ(one.size(), 3u);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(one[c] == three[c]) << "config " << c;
        EXPECT_TRUE(one[c] == two[c]) << "config " << c;
    }
}

TEST(SweepRunner, SharedFaultStreamDivergentQueueing)
{
    // Error window over the shared stream: every lane must observe
    // the identical device randomness — same error draws, same
    // final failures — while throttling-induced queueing diverges.
    // The min=5 lane queues deeply, so drain far past the stop
    // point: equality of the counters only holds once both lanes
    // have completed the whole shared submission set.
    const std::string faults = "err@100ms+300ms=0.2";
    const auto res = host::runSweep(
        baseOptions({kSpecA, kSpecB}, faults), 99, 1,
        [](sim::Simulator &sim, host::SweepRunner &runner) {
            runner.addWorkload("app", 200);
            workload::FioConfig cfg;
            cfg.arrival = workload::Arrival::Rate;
            cfg.ratePerSec = 5000;
            workload::FioWorkload job(
                sim, runner.layer(),
                runner.workloadCgroups()[0].second, cfg);
            job.start();
            sim.runUntil(600 * sim::kMsec);
            job.stop();
            sim.runUntil(30 * sim::kSec);
            EXPECT_EQ(runner.serviceLog().live(), 0u);
        },
        [](host::SweepRunner &runner, size_t lane, size_t) {
            return collectLane(runner, lane);
        });
    ASSERT_EQ(res.size(), 2u);

    EXPECT_GT(res[0].errors, 0u);
    // Shared stream: fault draws and outcomes identical per lane.
    EXPECT_EQ(res[0].errors, res[1].errors);
    EXPECT_EQ(res[0].retries, res[1].retries);
    EXPECT_EQ(res[0].failures, res[1].failures);
    EXPECT_EQ(res[0].reads, res[1].reads);
    // Divergent queueing: a 20x vrate gap must show up in latency.
    EXPECT_NE(res[0].p99, res[1].p99);
}

TEST(SweepRunner, LongOpenLoopSweepLogFollowsWorkInFlight)
{
    // Twenty simulated seconds of a 5000/s open-loop reader under
    // configs that never throttle it: the log may hold only the ids
    // still in flight somewhere, never one per bio issued (100k
    // here).
    host::SweepOptions opts =
        baseOptions({kSpecA, "iocost min=100 max=100 period=50000",
                     kSpecC});
    sim::Simulator sim(5);
    host::SweepRunner runner(sim, std::move(opts));
    runner.addWorkload("app", 200);
    workload::FioConfig cfg;
    cfg.arrival = workload::Arrival::Rate;
    cfg.ratePerSec = 5000;
    workload::FioWorkload job(sim, runner.layer(),
                              runner.workloadCgroups()[0].second, cfg);
    job.start();
    sim.runUntil(20 * sim::kSec);
    job.stop();
    EXPECT_GT(runner.layer().stats(runner.workloadCgroups()[0].second)
                  .reads,
              99'000u);
    EXPECT_LT(runner.serviceLog().peakLive(), 64u);
    expectLogDrained(sim, runner);
}

TEST(SweepRunner, ConstructionErrors)
{
    sim::Simulator sim(1);
    EXPECT_THROW(host::SweepRunner(sim, baseOptions({})),
                 std::invalid_argument);
    EXPECT_THROW(host::SweepRunner(sim, baseOptions({"nonsense"})),
                 std::invalid_argument);
    host::SweepOptions bad_sinks = baseOptions({kSpecA, kSpecB});
    bad_sinks.laneSinks.resize(1, nullptr);
    EXPECT_THROW(host::SweepRunner(sim, std::move(bad_sinks)),
                 std::invalid_argument);
}

// ------------------------------------------------------------------
// runPaired: the paired-CRN pool for closed-loop sweeps.
// ------------------------------------------------------------------

TEST(RunPaired, ResultsInConfigOrderAnyJobs)
{
    for (unsigned jobs : {0u, 1u, 3u, 16u}) {
        const auto out = host::runPaired(
            5, jobs, [](size_t c) { return 10 * c + 1; });
        ASSERT_EQ(out.size(), 5u);
        for (size_t c = 0; c < 5; ++c)
            EXPECT_EQ(out[c], 10 * c + 1);
    }
    EXPECT_TRUE(
        host::runPaired(0, 4, [](size_t) { return 0; }).empty());
}

TEST(RunPaired, LowestConfigErrorWins)
{
    try {
        host::runPaired(4, 2, [](size_t c) -> int {
            if (c == 1)
                throw std::runtime_error("config-1");
            if (c == 3)
                throw std::runtime_error("config-3");
            return 0;
        });
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "config-1");
    }
}

// ------------------------------------------------------------------
// Fleet sweep: paired CRN across full host-day runs.
// ------------------------------------------------------------------

std::string
aggBytes(const fleet::FleetAggregate &agg)
{
    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    EXPECT_NE(f, nullptr);
    fleet::writeAggregateJson(fleet::AggregateView::from(agg), f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

/** Aggregate bytes minus the execution-layout metadata. */
std::string
aggPayload(const fleet::FleetAggregate &agg)
{
    const std::string bytes = aggBytes(agg);
    const size_t cut = bytes.find("\"summary\"");
    EXPECT_NE(cut, std::string::npos);
    return bytes.substr(cut == std::string::npos ? 0 : cut);
}

const char *kFleetBase =
    "hosts=6 days=3 seed=77 devices=A:50,H:50 "
    "workloads=mixed:60,bursty:40 "
    "slice=20ms warmup=20ms fetch=64K fetch_deadline=8ms "
    "cleanup=6 cleanup_io=4K cleanup_deadline=4ms";

TEST(FleetSweep, LayoutInvariantPerConfig)
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(kFleetBase) +
        " sweep=iolatency;iocost,min=25,max=100");
    fleet::RunOptions ref_opts;
    ref_opts.jobs = 1;
    ref_opts.shards = 1;
    const auto ref = fleet::FleetSim::runScenarioSweep(sc, ref_opts);
    ASSERT_EQ(ref.size(), 2u);

    const unsigned combos[][2] = {{2, 3}, {3, 2}, {1, 4}};
    for (const auto &combo : combos) {
        fleet::RunOptions opts;
        opts.jobs = combo[0];
        opts.shards = combo[1];
        const auto got =
            fleet::FleetSim::runScenarioSweep(sc, opts);
        ASSERT_EQ(got.size(), 2u);
        for (size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(aggPayload(got[c]), aggPayload(ref[c]))
                << "config " << c << " jobs=" << combo[0]
                << " shards=" << combo[1];
        }
    }
}

TEST(FleetSweep, MatchesEquivalentPlainRuns)
{
    // A sweep config must reproduce the plain engine bit for bit:
    // "iolatency" == the never-migrating fleet, "iocost" == the
    // fleet that migrated before day 0.
    fleet::FleetScenario sweep_sc = fleet::FleetScenario::parse(
        std::string(kFleetBase) + " sweep=iolatency;iocost");
    fleet::RunOptions opts;
    opts.jobs = 2;
    const auto sweep =
        fleet::FleetSim::runScenarioSweep(sweep_sc, opts);
    ASSERT_EQ(sweep.size(), 2u);

    // parse() installs a default staggered-migration stage, so the
    // plain baselines are built programmatically: no stages = no
    // host ever migrates; a zero-span day-0 stage over the whole
    // fleet = every host migrated before its first day.
    fleet::FleetScenario never =
        fleet::FleetScenario::parse(kFleetBase);
    never.stages.clear();
    fleet::FleetScenario always =
        fleet::FleetScenario::parse(kFleetBase);
    always.stages = {fleet::MigrationStage{0, 0, 1.0}};
    EXPECT_EQ(aggPayload(sweep[0]),
              aggPayload(fleet::FleetSim::runScenario(never, opts)));
    EXPECT_EQ(
        aggPayload(sweep[1]),
        aggPayload(fleet::FleetSim::runScenario(always, opts)));
}

TEST(FleetSweep, RejectsBadConfigs)
{
    fleet::FleetScenario sc =
        fleet::FleetScenario::parse(kFleetBase);
    EXPECT_THROW(fleet::FleetSim::runScenarioSweep(sc),
                 std::invalid_argument);
    sc.sweep = {"iocost", "not-a-mechanism"};
    EXPECT_THROW(fleet::FleetSim::runScenarioSweep(sc),
                 std::invalid_argument);
    sc.sweep = {"iocost"};
    sc.telemetry = true;
    EXPECT_THROW(fleet::FleetSim::runScenarioSweep(sc),
                 std::invalid_argument);
}

// ------------------------------------------------------------------
// Scenario grammar + sweep JSON document.
// ------------------------------------------------------------------

TEST(FleetSweep, ScenarioParseAndCanonicalRoundTrip)
{
    const fleet::FleetScenario sc = fleet::FleetScenario::parse(
        "hosts=4 days=2 seed=5 "
        "sweep=iocost,min=25,period=2000;iolatency");
    ASSERT_EQ(sc.sweep.size(), 2u);
    EXPECT_EQ(sc.sweep[0], "iocost min=25 period=2000");
    EXPECT_EQ(sc.sweep[1], "iolatency");

    const fleet::FleetScenario rt =
        fleet::FleetScenario::parse(sc.canonical());
    EXPECT_EQ(rt.sweep, sc.sweep);

    EXPECT_THROW(
        fleet::FleetScenario::parse("hosts=4 sweep=garbage-mech"),
        std::invalid_argument);
    EXPECT_THROW(fleet::FleetScenario::parse("hosts=4 sweep=;"),
                 std::invalid_argument);
}

TEST(FleetSweep, SweepJsonRoundTrip)
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(kFleetBase) + " sweep=iolatency;iocost,min=25");
    const auto aggs = fleet::FleetSim::runScenarioSweep(sc);
    ASSERT_EQ(aggs.size(), 2u);

    fleet::SweepView view;
    for (size_t c = 0; c < aggs.size(); ++c) {
        view.labels.push_back(sc.sweep[c]);
        view.entries.push_back(
            fleet::AggregateView::from(aggs[c]));
    }

    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    ASSERT_NE(f, nullptr);
    fleet::writeSweepJson(view, f);
    std::fclose(f);
    std::string text(buf, len);
    std::free(buf);

    const fleet::SweepView parsed = fleet::readViewJson(text);
    ASSERT_EQ(parsed.labels.size(), 2u);
    ASSERT_EQ(parsed.entries.size(), 2u);
    EXPECT_EQ(parsed.labels[0], "iolatency");
    EXPECT_EQ(parsed.labels[1], "iocost min=25");
    for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(parsed.entries[c].hosts, view.entries[c].hosts);
        EXPECT_EQ(parsed.entries[c].hostDays,
                  view.entries[c].hostDays);
        EXPECT_EQ(parsed.entries[c].perDay.size(),
                  view.entries[c].perDay.size());
    }

    // A plain aggregate document reads as one unlabeled entry.
    const fleet::SweepView single = fleet::readViewJson(aggBytes(aggs[0]));
    EXPECT_TRUE(single.labels.empty());
    EXPECT_EQ(single.entries.size(), 1u);
}

// ------------------------------------------------------------------
// FifoRing: the allocation-stable queue under the throttle waitq.
// ------------------------------------------------------------------

TEST(FifoRing, FifoOrderAcrossGrowthAndWrap)
{
    sim::FifoRing<int> q;
    EXPECT_TRUE(q.empty());

    // Interleave pushes and pops so head_ walks the ring and the
    // buffer both wraps and regrows with live wrapped contents.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 7; ++i)
            q.push_back(next_in++);
        for (int i = 0; i < 5; ++i) {
            ASSERT_FALSE(q.empty());
            EXPECT_EQ(q.front(), next_out++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.size(), 400u);
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(FifoRing, PopReleasesOwningElements)
{
    // pop_front must drop the element's resource immediately — a
    // BioPtr-holding ring that kept popped bios alive would starve
    // the pool.
    auto counter = std::make_shared<int>(0);
    sim::FifoRing<std::shared_ptr<int>> q;
    q.push_back(counter);
    q.push_back(counter);
    EXPECT_EQ(counter.use_count(), 3);
    q.pop_front();
    EXPECT_EQ(counter.use_count(), 2);
    q.pop_front();
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_TRUE(q.empty());
}

} // namespace
