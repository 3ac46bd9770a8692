/**
 * @file
 * Sharded fleet engine: byte-identical streaming aggregates for any
 * (jobs, shards) layout — including the fig18/19 presets — plus the
 * per-shard exception boundary and the outcome-grid consistency of
 * the replay path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet_aggregate.hh"
#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"

namespace {

using namespace iocost;
using namespace iocost::fleet;

/** Serialize an aggregate to its JSON byte stream (the strongest
 *  equality available: every counter, percentile, and moment). */
std::string
aggBytes(const FleetAggregate &agg)
{
    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    EXPECT_NE(f, nullptr);
    writeAggregateJson(AggregateView::from(agg), f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

/** The aggregate payload minus the execution-layout metadata
 *  (shards/jobs legitimately differ between runs being compared). */
std::string
aggPayload(const FleetAggregate &agg)
{
    const std::string bytes = aggBytes(agg);
    const size_t cut = bytes.find("\"summary\"");
    EXPECT_NE(cut, std::string::npos);
    return bytes.substr(cut == std::string::npos ? 0 : cut);
}

/** Mixed-everything scenario small enough for seconds-long tests:
 *  device mix, workload mix, partial staged migration, Mix seeds. */
FleetScenario
smallScenario()
{
    return FleetScenario::parse(
        "hosts=9 days=4 seed=321 migration=1..3:60 "
        "devices=A:40,D:30,H:30 "
        "workloads=mixed:40,writeheavy:30,bursty:30 "
        "slice=20ms warmup=20ms fetch=64K fetch_deadline=8ms "
        "cleanup=6 cleanup_io=4K cleanup_deadline=4ms");
}

FleetAggregate
runWith(const FleetScenario &sc, unsigned jobs, unsigned shards)
{
    RunOptions opts;
    opts.jobs = jobs;
    opts.shards = shards;
    return FleetSim::runScenario(sc, opts);
}

TEST(FleetShards, AggregateByteIdenticalAcrossLayouts)
{
    const FleetScenario sc = smallScenario();
    const FleetAggregate ref_agg = runWith(sc, 1, 1);
    // The reference did the work, so equality below is not vacuous:
    // every host ran every day and the migration landed.
    ASSERT_EQ(ref_agg.days.size(), sc.days);
    for (const FleetDayResult &d : ref_agg.days)
        EXPECT_EQ(d.fetchAttempts, sc.hosts);
    EXPECT_EQ(ref_agg.days.front().fractionOnIoCost, 0.0);
    EXPECT_GT(ref_agg.days.back().fractionOnIoCost, 0.0);
    const std::string ref = aggPayload(ref_agg);
    // {jobs, shards}. Shards 0 is the auto policy (8 per worker,
    // clamped to the 9 hosts): jobs 3 does not divide it, and jobs
    // 64 asks for more workers than there are shards.
    const unsigned combos[][2] = {{1, 4}, {2, 3}, {4, 9}, {3, 7},
                                  {4, 1}, {1, 0}, {3, 0}, {4, 0},
                                  {64, 0}};
    for (const auto &c : combos) {
        const FleetAggregate agg = runWith(sc, c[0], c[1]);
        EXPECT_EQ(agg.hostDays, 9u * 4u);
        EXPECT_EQ(aggPayload(agg), ref)
            << "layout jobs=" << c[0] << " shards=" << c[1];
    }
}

/** Buffered host-days (page cache + flusher + debt-paced dirtiers
 *  inside every slice) must stay byte-identical for any layout just
 *  like the direct-IO kinds. */
TEST(FleetShards, BufferedAggregateByteIdenticalAcrossLayouts)
{
    const FleetScenario sc = FleetScenario::parse(
        "hosts=6 days=3 seed=77 migration=1..2:50 "
        "devices=A:50,G:50 workloads=mixed:40,buffered:60 "
        "dirty_ratio=25 "
        "slice=20ms warmup=20ms fetch=64K fetch_deadline=8ms "
        "cleanup=6 cleanup_io=4K cleanup_deadline=4ms");
    ASSERT_EQ(sc.pagecacheBytes, 512ull << 20); // buffered default
    const std::string ref = aggPayload(runWith(sc, 1, 1));
    const unsigned combos[][2] = {{1, 5}, {4, 3}, {2, 6}};
    for (const auto &c : combos) {
        const FleetAggregate agg = runWith(sc, c[0], c[1]);
        EXPECT_EQ(agg.hostDays, 6u * 3u);
        EXPECT_EQ(aggPayload(agg), ref)
            << "layout jobs=" << c[0] << " shards=" << c[1];
    }
}

TEST(FleetShards, MomentsBitIdenticalAcrossLayouts)
{
    const FleetScenario sc = smallScenario();
    const FleetAggregate a = runWith(sc, 1, 1);
    const FleetAggregate b = runWith(sc, 4, 6);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(a.fetchTime[c].count(), b.fetchTime[c].count());
        EXPECT_EQ(a.fetchTime[c].total(), b.fetchTime[c].total());
        // Doubles compared EXACTLY: both derive from integer state,
        // so any drift means the merge lost bit-determinism.
        EXPECT_EQ(a.fetchTime[c].mean(), b.fetchTime[c].mean());
        EXPECT_EQ(a.fetchTime[c].stddev(),
                  b.fetchTime[c].stddev());
        EXPECT_EQ(a.cleanupTime[c].stddev(),
                  b.cleanupTime[c].stddev());
        for (double q : {0.1, 0.5, 0.9, 0.99}) {
            EXPECT_EQ(a.fetchTime[c].quantile(q),
                      b.fetchTime[c].quantile(q));
            EXPECT_EQ(a.cleanupTime[c].quantile(q),
                      b.cleanupTime[c].quantile(q));
        }
    }
    ASSERT_EQ(a.fetchFailures.size(), b.fetchFailures.size());
    for (size_t i = 0; i < a.fetchFailures.size(); ++i) {
        EXPECT_EQ(a.fetchFailures.points()[i].when,
                  b.fetchFailures.points()[i].when);
        EXPECT_EQ(a.fetchFailures.points()[i].value,
                  b.fetchFailures.points()[i].value);
    }
}

TEST(FleetShards, LegacyFigConfigsByteIdenticalAcrossLayouts)
{
    // The fig18/fig19 presets (their seeds, their old/new-gen device
    // split), scaled down to a 6-host, 5-day fleet.
    for (const char *preset : {kFig18Spec, kFig19Spec}) {
        const FleetScenario sc = FleetScenario::parse(
            std::string(preset) +
            " hosts=6 days=5 migration=1..4 warmup=50ms slice=50ms "
            "fetch=1M cleanup=20");
        const std::string ref = aggPayload(runWith(sc, 1, 1));
        EXPECT_EQ(aggPayload(runWith(sc, 4, 6)), ref) << preset;
        EXPECT_EQ(aggPayload(runWith(sc, 2, 5)), ref) << preset;
        EXPECT_EQ(aggPayload(runWith(sc, 3, 0)), ref) << preset;
    }
}

TEST(FleetShards, OutcomeGridConsistentWithStreamingAggregate)
{
    const FleetScenario sc = smallScenario();
    RunOptions opts;
    opts.jobs = 2;
    opts.shards = 5;
    std::vector<HostDayOutcome> grid;
    const FleetAggregate agg =
        FleetSim::runScenario(sc, opts, &grid);
    ASSERT_EQ(grid.size(),
              static_cast<size_t>(sc.hosts) * sc.days);

    for (unsigned day = 0; day < sc.days; ++day) {
        unsigned fetch_fail = 0, cleanup_fail = 0;
        for (unsigned h = 0; h < sc.hosts; ++h) {
            const HostDayOutcome &o = grid[day * sc.hosts + h];
            fetch_fail += o.fetchFailed ? 1 : 0;
            cleanup_fail += o.cleanupFailed ? 1 : 0;
        }
        EXPECT_EQ(fetch_fail, agg.days[day].fetchFailures);
        EXPECT_EQ(cleanup_fail, agg.days[day].cleanupFailures);
        EXPECT_EQ(agg.days[day].fetchAttempts, sc.hosts);
    }

    // Completed agents land in the histograms; failures do not.
    uint64_t completed_fetches = 0;
    for (const HostDayOutcome &o : grid)
        completed_fetches += o.fetchFailed ? 0 : 1;
    EXPECT_EQ(agg.fetchTime[kCtlIoLatency].count() +
                  agg.fetchTime[kCtlIoCost].count(),
              completed_fetches);
}

TEST(FleetShards, SliceExceptionDrainsAndRethrowsDeterministically)
{
    FleetScenario sc = smallScenario();
    sc.throwAtDay = 2;
    sc.throwAtHost = 4;

    std::string what_seq, what_par;
    try {
        runWith(sc, 1, 3);
        FAIL() << "sequential run should have thrown";
    } catch (const std::runtime_error &err) {
        what_seq = err.what();
    }
    try {
        runWith(sc, 4, 6);
        FAIL() << "parallel run should have thrown";
    } catch (const std::runtime_error &err) {
        what_par = err.what();
    }
    // Same exception regardless of worker layout (the lowest
    // failed shard wins the rethrow).
    EXPECT_EQ(what_seq, what_par);
    EXPECT_NE(what_seq.find("day 2"), std::string::npos);
    EXPECT_NE(what_seq.find("host 4"), std::string::npos);
}

TEST(FleetShards, AggregateJsonRoundTrips)
{
    const FleetScenario sc = smallScenario();
    const FleetAggregate agg = runWith(sc, 2, 4);
    const AggregateView view = AggregateView::from(agg);

    char *buf = nullptr;
    size_t len = 0;
    FILE *f = open_memstream(&buf, &len);
    ASSERT_NE(f, nullptr);
    writeAggregateJson(view, f);
    std::fclose(f);
    const std::string text(buf, len);
    std::free(buf);

    const SweepView read = readViewJson(text);
    EXPECT_TRUE(read.labels.empty());
    ASSERT_EQ(read.entries.size(), 1u);
    const AggregateView &back = read.entries[0];
    EXPECT_EQ(back.hosts, view.hosts);
    EXPECT_EQ(back.days, view.days);
    EXPECT_EQ(back.hostDays, view.hostDays);
    ASSERT_EQ(back.perDay.size(), view.perDay.size());
    for (size_t i = 0; i < view.perDay.size(); ++i) {
        EXPECT_EQ(back.perDay[i].fetchFailures,
                  view.perDay[i].fetchFailures);
        EXPECT_NEAR(back.perDay[i].fractionOnIoCost,
                    view.perDay[i].fractionOnIoCost, 1e-9);
    }
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(back.ctl[c].fetchCount, view.ctl[c].fetchCount);
        EXPECT_NEAR(back.ctl[c].fetchP99Ms,
                    view.ctl[c].fetchP99Ms, 1e-6);
    }

    // A line of the per-host replay JSONL is NOT a fleet document.
    EXPECT_THROW(
        readViewJson("{\"day\":0,\"host\":1,\"t\":5,\"src\":\"x\"}\n"),
        std::invalid_argument);
}

} // namespace
