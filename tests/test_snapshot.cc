/**
 * @file
 * Branchable-state tests: snapshot/restore round-trip byte-identity
 * across every device kind, controller, fault state and page-cache
 * state, a faulted device, branch isolation,
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
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/**
 * A small host, deterministically assembled: two random jobs and a
 * sequential one, plus a buffered dirtier over a 64M page cache
 * when @p cache is set.
 */
struct Rig
{
    sim::Simulator sim;
    std::unique_ptr<host::Host> host;
    std::vector<std::unique_ptr<workload::FioWorkload>> jobs;
    std::unique_ptr<workload::BufferedWorkload> dirtier;

    explicit Rig(const std::string &controller,
                 const std::string &faults = "",
                 const std::string &device = "newgen",
                 bool cache = false, uint64_t seed = 7)
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
        opts.enablePageCache = cache;
        opts.pageCacheConfig.cacheBytes = 64ull << 20;
        host = std::make_unique<host::Host>(sim, std::move(dev),
                                            opts);
        const char *const names[] = {"web", "batch", "seq"};
        const uint32_t weights[] = {200, 100, 50};
        for (int j = 0; j < 3; ++j) {
            workload::FioConfig fio;
            fio.iodepth = 16;
            fio.offsetBase = static_cast<uint64_t>(j) << 40;
            if (j == 1)
                fio.readFraction = 0.3;
            if (j == 2)
                fio.randomFraction = 0.0;
            const auto cg = host->addWorkload(names[j], weights[j]);
            jobs.push_back(
                std::make_unique<workload::FioWorkload>(
                    sim, host->layer(), cg, fio));
            host->track(*jobs.back());
            jobs.back()->start();
        }
        if (cache) {
            const auto cg = host->addWorkload("dirtier", 100);
            workload::BufferedConfig dc;
            dc.name = "dirtier";
            dc.blockSize = 1 << 20;
            dc.spanBytes = 256ull << 20;
            dc.offsetBase = 3ull << 40;
            dc.thinkTime = 20 * sim::kUsec;
            dc.depth = 4;
            dirtier = std::make_unique<workload::BufferedWorkload>(
                sim, host->pageCache(), cg, dc);
            host->track(*dirtier);
            dirtier->start();
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

/** One device model of each kind: SSD, HDD and cloud volume. */
const char *const kDevices[] = {"newgen", "hdd", "gp3"};

const char *const kFaults =
    "lat@40ms+80ms=6,err@60ms+60ms=0.05,timeout=30ms";

/**
 * snapshot(t1) -> run(t2) -> restore -> run(t2) must be byte-identical
 * to run(t2) without the snapshot, at both t2s, for every device
 * model, controller, fault state and page-cache state. Fuzzed over
 * t1. A field left off a tape keeps its t2 value through the
 * restore, so the second run drifts.
 */
TEST(SnapshotRoundTrip, EveryController)
{
    struct Cell
    {
        const char *dev;
        const char *ctl;
        bool faults;
        bool cache;
    };
    std::vector<Cell> grid;
    for (const char *dev : kDevices)
        for (const char *ctl : kControllers)
            for (const bool faults : {false, true})
                for (const bool cache : {false, true})
                    grid.push_back({dev, ctl, faults, cache});

    sim::Rng fuzz(2022);
    for (const Cell &c : grid) {
        const sim::Time t1 =
            10 * sim::kMsec +
            static_cast<sim::Time>(fuzz.below(90 * sim::kMsec));
        const sim::Time t2 = t1 + 120 * sim::kMsec;
        const std::string faults = c.faults ? kFaults : "";
        const std::string where = std::string(c.dev) + " " + c.ctl +
                                  (c.faults ? " faults" : "") +
                                  (c.cache ? " cache" : "");

        Rig plain(c.ctl, faults, c.dev, c.cache);
        plain.sim.runUntil(t2);
        const auto expected = plain.signature();

        Rig tripped(c.ctl, faults, c.dev, c.cache);
        tripped.sim.runUntil(t1);
        const host::HostSnapshot snap = tripped.host->snapshot();
        tripped.sim.runUntil(t2);
        EXPECT_EQ(expected, tripped.signature())
            << where << ": a snapshot at t=" << t1
            << " perturbed the run";

        tripped.host->restore(snap);
        tripped.sim.runUntil(t2);
        EXPECT_EQ(expected, tripped.signature())
            << where << ": diverged after a restore from t=" << t2
            << " back to t=" << t1;
    }
}

/** Same round-trip identity on a device with fault windows that
 *  straddle the round-trip instant (error and latency injection,
 *  retries and timeouts in flight). */
TEST(SnapshotRoundTrip, FaultedDevice)
{
    const std::string faults = kFaults;
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

/** Snapshots restore state, not structure: restoring into a host
 *  with another set of cgroups panics with the cgroup tree's
 *  message instead of misreading the tape. */
TEST(SnapshotRoundTrip, StructureMismatchPanics)
{
    Rig cached("iocost", "", "newgen", true);
    const host::HostSnapshot snap = cached.host->snapshot();
    Rig plain("iocost");
    EXPECT_DEATH(plain.host->restore(snap),
                 "CgroupTree::loadState: node count mismatch");
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

/** io.max limits and io.latency targets are in the controllers'
 *  state walks, so a branch from a checkpoint keeps them: fig10's
 *  blk-throttle and iolatency rows, shortened, answer like a cold
 *  re-run. */
TEST(WhatifService, CgroupLimitRowsBranchLikeCold)
{
    const char *const rows[] = {
        "controller=blk-throttle;"
        "job=high-priority:weight=200:latency_target=200us:depth=16:"
        "io.max=riops=35440.65;"
        "job=low-priority:weight=100:latency_target=200us:depth=16:"
        "io.max=riops=17720.325",
        "controller=iolatency;"
        "job=high-priority:weight=200:latency_target=200us:depth=16:"
        "io.latency=target=200;"
        "job=low-priority:weight=100:latency_target=200us:depth=16:"
        "io.latency=target=400",
    };
    const whatif::Query q = whatif::Query::parse(
        "{\"q\":\"weight\",\"cg\":\"low-priority\",\"value\":300,"
        "\"from\":\"150ms\"}");
    for (const char *row : rows) {
        const host::ScenarioSpec sc = host::ScenarioSpec::parse(
            std::string("device=oldgen;seed=1010;seconds=0.4;"
                        "marks=100ms,200ms;") +
            row);
        whatif::Service service(sc, 2);
        EXPECT_EQ(service.evaluate(q),
                  whatif::Service::evaluateCold(sc, q))
            << row;
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

/** The error message of @p service's answer to @p query, which must
 *  be a whatif_error document. */
std::string
errorText(whatif::Service &service, const std::string &query)
{
    const sim::json::Value doc =
        sim::json::parse(service.evaluate(whatif::Query::parse(query)));
    EXPECT_EQ(doc.string("type"), "whatif_error") << query;
    return doc.string("error");
}

/** Unknown cgroups, unknown profiles and cross-kind device swaps are
 *  clean errors (whatif_error documents), not aborts. */
TEST(WhatifService, BadQueriesAreErrors)
{
    whatif::Service service(smallScenario(), 1);
    EXPECT_EQ(errorText(service, "{\"q\":\"weight\",\"cg\":\"nope\","
                                 "\"value\":300}"),
              "whatif: unknown cgroup \"nope\"");
    EXPECT_EQ(errorText(service,
                        "{\"q\":\"device\",\"profile\":\"nosuch\"}"),
              "unknown device \"nosuch\" (oldgen, newgen, enterprise, "
              "A, B, C, D, E, F, G, H, hdd, gp3, io2, pd-balanced, "
              "pd-ssd)");

    // A live device takes only a profile of its own kind: on an SSD,
    // a spinning-disk and a cloud-volume host.
    const struct
    {
        const char *device;
        const char *profile;
        const char *model;
    } swaps[] = {
        {"newgen", "hdd", "newgen-commercial-ssd"},
        {"newgen", "pd-ssd", "newgen-commercial-ssd"},
        {"hdd", "G", "nearline-hdd-7200rpm"},
        {"hdd", "io2", "nearline-hdd-7200rpm"},
        {"gp3", "enterprise", "aws-ebs-gp3-3000iops"},
        {"gp3", "hdd", "aws-ebs-gp3-3000iops"},
    };
    for (const auto &c : swaps) {
        whatif::Service host_service(
            host::ScenarioSpec::parse(std::string("device=") +
                                      c.device + ";seconds=0.2"),
            1);
        EXPECT_EQ(errorText(host_service,
                            std::string("{\"q\":\"device\","
                                        "\"profile\":\"") +
                                c.profile + "\"}"),
                  std::string("device profile \"") + c.profile +
                      "\" does not fit device \"" + c.model +
                      "\"; a live device can only swap to a profile "
                      "of its own kind");
    }
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

/** A checkpoint image carries each histogram's occupied range, not
 *  its 2,080 buckets: the default what-if scenario's 2 s checkpoint
 *  (18 histograms) stays small, and restoring it, then snapshotting
 *  again, writes the same bytes. */
TEST(WhatifCheckpoint, DefaultScenarioImageIsCompact)
{
    host::ScenarioSpec sc = host::ScenarioSpec::parse(
        "device=newgen;seconds=8;marks=2s,4s,6s");
    sc.normalize();
    sim::Simulator sim(sc.seed);
    host::ScenarioHost scenario(sim, sc);
    sim.runUntil(2 * sim::kSec);
    const host::HostSnapshot snap = scenario.host().snapshot();
    EXPECT_LT(snap.byteSize(), 16u * 1024u);

    sim.runUntil(2 * sim::kSec + 50 * sim::kMsec);
    scenario.host().restore(snap);
    EXPECT_EQ(scenario.host().snapshot().image().bytes,
              snap.image().bytes);
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
