/**
 * @file
 * Branchable-state tests: snapshot/restore round-trip byte-identity
 * across every controller and a faulted device, branch isolation,
 * and the what-if service's determinism gate (branch-from-
 * checkpoint == cold full re-run, byte for byte).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "controllers/factory.hh"
#include "host/device_factory.hh"
#include "host/host.hh"
#include "host/scenario.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/** A small two-job host, deterministically assembled. */
struct Rig
{
    sim::Simulator sim;
    std::unique_ptr<host::Host> host;
    std::vector<std::unique_ptr<workload::FioWorkload>> jobs;

    explicit Rig(const std::string &controller,
                 const std::string &faults = "",
                 const std::string &device = "newgen",
                 uint64_t seed = 7)
        : sim(seed)
    {
        core::LinearModelConfig model;
        auto dev = host::makeNamedDevice(device, sim, &model);
        const auto spec =
            controllers::parseControllerSpec(controller);
        if (!spec)
            throw std::invalid_argument("bad controller spec: " +
                                        controller);
        host::HostOptions opts;
        opts.controller = *spec;
        opts.controller.iocost.model =
            core::CostModel::fromConfig(model);
        opts.controller.iocost.qos.vrateMin = 0.5;
        opts.controller.iocost.qos.vrateMax = 1.0;
        opts.faults = faults;
        opts.installFaultInjector = true;
        host = std::make_unique<host::Host>(sim, std::move(dev),
                                            opts);
        for (int j = 0; j < 2; ++j) {
            workload::FioConfig fio;
            fio.iodepth = 16;
            fio.offsetBase = static_cast<uint64_t>(j) << 40;
            if (j == 1)
                fio.readFraction = 0.3;
            const auto cg = host->addWorkload(
                j ? "batch" : "web", j ? 100u : 200u);
            jobs.push_back(
                std::make_unique<workload::FioWorkload>(
                    sim, host->layer(), cg, fio));
            host->track(*jobs.back());
            jobs.back()->start();
        }
    }

    /** The byte tape of a fresh snapshot: the state signature. */
    std::vector<unsigned char>
    signature() const
    {
        return host->snapshot().image().bytes;
    }
};

const char *const kControllers[] = {
    "none",     "mq-deadline", "kyber",  "bfq",
    "blk-throttle", "iolatency",   "iocost",
};

/**
 * snapshot -> restore -> run(T) must be byte-identical to run(T)
 * without the round-trip, for every controller. Fuzzed over the
 * round-trip instant.
 */
TEST(SnapshotRoundTrip, EveryController)
{
    sim::Rng fuzz(2022);
    for (const char *ctl : kControllers) {
        for (int iter = 0; iter < 3; ++iter) {
            const sim::Time t1 =
                10 * sim::kMsec +
                static_cast<sim::Time>(
                    fuzz.below(90 * sim::kMsec));
            const sim::Time t2 = t1 + 120 * sim::kMsec;

            Rig plain(ctl);
            plain.sim.runUntil(t1);
            plain.sim.runUntil(t2);

            Rig tripped(ctl);
            tripped.sim.runUntil(t1);
            const host::HostSnapshot snap =
                tripped.host->snapshot();
            tripped.host->restore(snap);
            tripped.sim.runUntil(t2);

            EXPECT_EQ(plain.signature(), tripped.signature())
                << "controller " << ctl << " diverged after a "
                << "snapshot/restore round-trip at t=" << t1;
        }
    }
}

/** Same round-trip identity on a device with fault windows that
 *  straddle the round-trip instant (error and latency injection,
 *  retries and timeouts in flight). */
TEST(SnapshotRoundTrip, FaultedDevice)
{
    const std::string faults =
        "lat@40ms+80ms=6,err@60ms+60ms=0.05,timeout=30ms";
    sim::Rng fuzz(7);
    for (int iter = 0; iter < 4; ++iter) {
        const sim::Time t1 =
            30 * sim::kMsec +
            static_cast<sim::Time>(fuzz.below(80 * sim::kMsec));
        const sim::Time t2 = 200 * sim::kMsec;

        Rig plain("iocost", faults);
        plain.sim.runUntil(t1);
        plain.sim.runUntil(t2);

        Rig tripped("iocost", faults);
        tripped.sim.runUntil(t1);
        const host::HostSnapshot snap = tripped.host->snapshot();
        tripped.host->restore(snap);
        tripped.sim.runUntil(t2);

        EXPECT_EQ(plain.signature(), tripped.signature())
            << "faulted round-trip at t=" << t1;
    }
}

/** One snapshot restored twice must behave identically both times
 *  (boxes are immutable; restores clone out of them). */
TEST(SnapshotRoundTrip, MultiRestore)
{
    Rig rig("iocost");
    rig.sim.runUntil(50 * sim::kMsec);
    const host::HostSnapshot snap = rig.host->snapshot();

    rig.host->restore(snap);
    rig.sim.runUntil(150 * sim::kMsec);
    const auto first = rig.signature();

    rig.host->restore(snap);
    rig.sim.runUntil(150 * sim::kMsec);
    const auto second = rig.signature();

    EXPECT_EQ(first, second);
}

/** A branch runs a hypothetical and leaves no trace: state after
 *  the scope ends equals state at the branch point, and the
 *  continued run equals a run that never branched. */
TEST(BranchScope, Isolation)
{
    Rig branched("iocost");
    branched.sim.runUntil(60 * sim::kMsec);
    const auto at_branch = branched.signature();
    {
        host::BranchScope scope = branched.host->branch();
        branched.host->tree().setWeight(
            branched.host->workload(), 900);
        branched.sim.runUntil(140 * sim::kMsec);
    }
    EXPECT_EQ(at_branch, branched.signature())
        << "BranchScope did not roll back to the branch point";

    branched.sim.runUntil(200 * sim::kMsec);

    Rig straight("iocost");
    straight.sim.runUntil(200 * sim::kMsec);
    EXPECT_EQ(straight.signature(), branched.signature())
        << "a branch perturbed the baseline timeline";
}

host::ScenarioSpec
smallScenario()
{
    return host::ScenarioSpec::parse(
        "device=newgen;seconds=0.4;marks=100ms,200ms;seed=11");
}

/** The service's branch-from-checkpoint answer must be
 *  byte-identical to a cold full re-run for every query kind. */
TEST(WhatifService, DeterminismGate)
{
    const host::ScenarioSpec sc = smallScenario();
    whatif::Service service(sc, 2);
    const char *const queries[] = {
        "{\"q\":\"weight\",\"cg\":\"web\",\"value\":300,"
        "\"from\":\"150ms\"}",
        "{\"q\":\"fault\",\"spec\":\"lat@250ms+100ms=6\","
        "\"from\":\"220ms\"}",
        "{\"q\":\"device\",\"profile\":\"oldgen\","
        "\"from\":\"100ms\"}",
    };
    for (const char *line : queries) {
        const whatif::Query q = whatif::Query::parse(line);
        EXPECT_EQ(service.evaluate(q),
                  whatif::Service::evaluateCold(sc, q))
            << "query " << line;
    }
}

/** Identical queries are served from the result cache. */
TEST(WhatifService, ResultCache)
{
    whatif::Service service(smallScenario(), 1);
    const whatif::Query q = whatif::Query::parse(
        "{\"q\":\"weight\",\"cg\":\"batch\",\"value\":500}");
    const std::string first = service.evaluate(q);
    const std::string second = service.evaluate(q);
    EXPECT_EQ(first, second);
    EXPECT_GE(service.cacheHits(), 1u);
}

/** Malformed queries fail loudly at parse time. */
TEST(WhatifQuery, ParseErrors)
{
    EXPECT_THROW(whatif::Query::parse("not json"),
                 std::invalid_argument);
    EXPECT_THROW(whatif::Query::parse("{\"q\":\"weight\"}"),
                 std::invalid_argument);
    EXPECT_THROW(
        whatif::Query::parse(
            "{\"q\":\"fault\",\"spec\":\"timeout=10ms\"}"),
        std::invalid_argument);
    EXPECT_THROW(
        whatif::Query::parse(
            "{\"q\":\"weight\",\"cg\":\"web\",\"value\":300,"
            "\"bogus\":1}"),
        std::invalid_argument);
    const whatif::Query q = whatif::Query::parse(
        "{\"q\":\"weight\",\"cg\":\"web\",\"value\":300,"
        "\"from\":\"1s\"}");
    EXPECT_EQ(q.from, sim::kSec);
    EXPECT_EQ(q.weight, 300u);
}

/** Unknown cgroups and cross-kind device swaps are clean errors
 *  (whatif_error documents), not aborts. */
TEST(WhatifService, BadQueriesAreErrors)
{
    whatif::Service service(smallScenario(), 1);
    const std::string unknown_cg = service.evaluate(
        whatif::Query::parse("{\"q\":\"weight\",\"cg\":\"nope\","
                             "\"value\":300}"));
    EXPECT_NE(unknown_cg.find("whatif_error"), std::string::npos);
    const std::string wrong_kind = service.evaluate(
        whatif::Query::parse(
            "{\"q\":\"device\",\"profile\":\"hdd\"}"));
    EXPECT_NE(wrong_kind.find("whatif_error"), std::string::npos);
}

/** Error documents stay valid JSON when the message quotes a value,
 *  and name the query when there is one (as the service's do). */
TEST(WhatifService, ErrorDocsEscapeMessages)
{
    EXPECT_EQ(whatif::errorJson("unknown key \"x\""),
              "{\"type\":\"whatif_error\","
              "\"error\":\"unknown key \\\"x\\\"\"}");
    const whatif::Query q = whatif::Query::parse(
        "{\"q\":\"weight\",\"cg\":\"nope\",\"value\":3}");
    EXPECT_EQ(whatif::errorJson("e", &q),
              "{\"type\":\"whatif_error\",\"query\":\"" + q.canonical() +
                  "\",\"error\":\"e\"}");
}

/** Result documents stay JSON whatever bytes a message, a query or
 *  a job name holds: control characters are escaped, and a long
 *  name is not cut short by a fixed-size format buffer. */
TEST(WhatifService, DocsParseWithControlCharacters)
{
    const std::string odd = "we\tb\n\x01\x1f\"\\";
    const whatif::Query q = whatif::Query::parse(
        "{\"q\":\"weight\",\"cg\":\"we\\tb\",\"value\":3}");
    const sim::json::Value err =
        sim::json::parse(whatif::errorJson("no cgroup " + odd, &q));
    EXPECT_EQ(err.string("query"), q.canonical());
    EXPECT_EQ(err.string("error"), "no cgroup " + odd);

    whatif::RunStats rs;
    rs.jobs = {{odd, 10, 4096, 100, 200, 0},
               {std::string(300, 'j'), 1, 2, 3, 4, 5}};
    const sim::json::Value diff =
        sim::json::parse(whatif::diffJson(smallScenario(), q, rs, rs));
    for (const char *part : {"baseline", "delta"}) {
        const auto &jobs = diff.at(part).at("jobs").items;
        ASSERT_EQ(jobs.size(), 2u);
        EXPECT_EQ(jobs[0].string("name"), odd);
        EXPECT_EQ(jobs[1].string("name"), rs.jobs[1].name);
    }
}

/** Scenario identity: canonicalization is stable and the hash
 *  separates materially different scenarios. */
TEST(WhatifScenario, CanonicalHash)
{
    const host::ScenarioSpec a = smallScenario();
    const host::ScenarioSpec b = smallScenario();
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hash(), b.hash());
    host::ScenarioSpec c = smallScenario();
    c.seed = 12;
    c.normalize();
    EXPECT_NE(a.hash(), c.hash());
    EXPECT_THROW(host::ScenarioSpec::parse("bogus-key=1"),
                 std::invalid_argument);
}

} // namespace
