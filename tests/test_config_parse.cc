/**
 * @file
 * Tests for the kernel-format io.cost.model / io.cost.qos parsing
 * and the programmable cost-model hook.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "controllers/factory.hh"
#include "core/config_parse.hh"
#include "core/iocost.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "sim/simulator.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost::core;
using namespace iocost;

TEST(ConfigParse, ModelLineFromThePaper)
{
    // Fig. 6's configuration, as the kernel file would show it.
    const auto cfg = parseModelLine(
        "8:0 ctrl=user model=linear rbps=488636629 rseqiops=8932 "
        "rrandiops=8518 wbps=427891549 wseqiops=28755 "
        "wrandiops=21940");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->rbps, 488636629);
    EXPECT_DOUBLE_EQ(cfg->rseqiops, 8932);
    EXPECT_DOUBLE_EQ(cfg->rrandiops, 8518);
    EXPECT_DOUBLE_EQ(cfg->wbps, 427891549);
    EXPECT_DOUBLE_EQ(cfg->wseqiops, 28755);
    EXPECT_DOUBLE_EQ(cfg->wrandiops, 21940);
}

TEST(ConfigParse, ModelLineRoundTrips)
{
    LinearModelConfig cfg;
    cfg.rbps = 123456789;
    cfg.rseqiops = 11111;
    cfg.rrandiops = 22222;
    cfg.wbps = 987654321;
    cfg.wseqiops = 33333;
    cfg.wrandiops = 44444;
    const auto parsed = parseModelLine(formatModelLine(cfg));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->rbps, cfg.rbps);
    EXPECT_DOUBLE_EQ(parsed->wrandiops, cfg.wrandiops);
}

TEST(ConfigParse, ModelLineRejectsGarbage)
{
    EXPECT_FALSE(parseModelLine("rbps").has_value());
    EXPECT_FALSE(parseModelLine("rbps=").has_value());
    EXPECT_FALSE(parseModelLine("rbps=abc").has_value());
    EXPECT_FALSE(parseModelLine("rbps=-5").has_value());
    EXPECT_FALSE(parseModelLine("").has_value());
    EXPECT_FALSE(parseModelLine("8:0 ctrl=user").has_value())
        << "markers alone configure nothing";
}

TEST(ConfigParse, ModelLineIgnoresUnknownKeys)
{
    const auto cfg =
        parseModelLine("rbps=1000000 future_knob=7");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->rbps, 1000000);
}

TEST(ConfigParse, QosLineKernelDefaults)
{
    const auto qos = parseQosLine(
        "8:16 enable=1 ctrl=user rpct=95.00 rlat=5000 wpct=95.00 "
        "wlat=5000 min=50.00 max=150.00");
    ASSERT_TRUE(qos.has_value());
    EXPECT_DOUBLE_EQ(qos->readLatQuantile, 0.95);
    EXPECT_EQ(qos->readLatTarget, 5 * sim::kMsec);
    EXPECT_DOUBLE_EQ(qos->writeLatQuantile, 0.95);
    EXPECT_EQ(qos->writeLatTarget, 5 * sim::kMsec);
    EXPECT_DOUBLE_EQ(qos->vrateMin, 0.5);
    EXPECT_DOUBLE_EQ(qos->vrateMax, 1.5);
}

TEST(ConfigParse, QosLineRejectsInvertedBounds)
{
    EXPECT_FALSE(
        parseQosLine("min=150 max=50").has_value());
}

/** Infinite or NaN values are garbage, not unbounded settings; a
 *  finite value past its field's range is an error naming the key,
 *  not an undefined cast. */
TEST(ConfigParse, NonFiniteValuesRejected)
{
    EXPECT_FALSE(parseQosLine("min=inf max=inf").has_value());
    EXPECT_FALSE(parseQosLine("rlat=nan").has_value());
    EXPECT_FALSE(parseModelLine("rbps=inf").has_value());
    EXPECT_FALSE(
        controllers::parseControllerSpec("kyber rlat=inf").has_value());

    constexpr auto spec = controllers::parseControllerSpec;
    const struct
    {
        std::function<void()> parse;
        const char *message;
    } out_of_range[] = {
        {[] { (void)parseQosLine("rlat=2e20"); },
         "rlat: 2e+20 us is out of range (2^63 ns or more)"},
        {[] { (void)parseQosLine("rpct=90 wlat=1e300"); },
         "wlat: 1e+300 us is out of range"},
        {[] { (void)spec("kyber rlat=1e300"); },
         "rlat: 1e+300 us is out of range"},
        {[] { (void)spec("kyber wdepth=1e10"); },
         "wdepth: 10000000000 is out of range (max 4294967295)"},
        {[] { (void)spec("bfq budget=2e19"); },
         "budget: 2e+19 is out of range (max 18446744073709551615)"},
        {[] { (void)spec("iocost period=1e16"); },
         "period: 1e+16 us is out of range"},
    };
    for (const auto &c : out_of_range) {
        try {
            c.parse();
            ADD_FAILURE() << "accepted: " << c.message;
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(c.message),
                      std::string::npos)
                << err.what();
        }
    }
    // The largest values that fit still parse.
    EXPECT_TRUE(spec("kyber wdepth=4294967295.9"));
    EXPECT_TRUE(parseQosLine("rlat=9223372036854774"));
}

TEST(ConfigParse, QosLineRoundTrips)
{
    QosParams qos;
    qos.readLatQuantile = 0.9;
    qos.readLatTarget = 250 * sim::kUsec;
    qos.writeLatQuantile = 0.95;
    qos.writeLatTarget = 2 * sim::kMsec;
    qos.vrateMin = 0.25;
    qos.vrateMax = 4.0;
    const auto parsed = parseQosLine(formatQosLine(qos));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->readLatQuantile, 0.9);
    EXPECT_EQ(parsed->readLatTarget, 250 * sim::kUsec);
    EXPECT_DOUBLE_EQ(parsed->vrateMin, 0.25);
    EXPECT_DOUBLE_EQ(parsed->vrateMax, 4.0);
}

TEST(CostProgram, OverridesLinearModel)
{
    // A flat-cost program claiming 2000 IOPS regardless of size or
    // direction must pin throughput at 2000.
    sim::Simulator sim(91);
    device::SsdModel device(sim, device::enterpriseSsd());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);

    IoCostConfig cfg;
    cfg.qos.vrateMin = 1.0;
    cfg.qos.vrateMax = 1.0;
    cfg.qos.readLatTarget = 1 * sim::kSec;
    cfg.qos.writeLatTarget = 1 * sim::kSec;
    cfg.costProgram = [](const blk::Bio &, bool) {
        return 500 * sim::kUsec; // 2000/s flat
    };
    layer.setController(std::make_unique<IoCost>(cfg));

    const auto cg = tree.create(cgroup::kRoot, "a");
    workload::FioConfig job_cfg;
    job_cfg.iodepth = 32;
    workload::FioWorkload job(sim, layer, cg, job_cfg);
    job.start();
    sim.runUntil(1 * sim::kSec);
    job.resetStats();
    sim.runUntil(6 * sim::kSec);
    EXPECT_NEAR(job.iops(), 2000, 150);
}

TEST(CostProgram, ReceivesSequentialClassification)
{
    sim::Simulator sim(92);
    device::SsdModel device(sim, device::enterpriseSsd());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);

    unsigned sequential_seen = 0, random_seen = 0;
    IoCostConfig cfg;
    cfg.qos.vrateMin = 1.0;
    cfg.qos.vrateMax = 1.0;
    cfg.costProgram = [&](const blk::Bio &,
                          bool sequential) -> sim::Time {
        (sequential ? sequential_seen : random_seen) += 1;
        return 10 * sim::kUsec;
    };
    auto ctl = std::make_unique<IoCost>(cfg);
    IoCost *ptr = ctl.get();
    layer.setController(std::move(ctl));
    (void)ptr;

    const auto cg = tree.create(cgroup::kRoot, "a");
    workload::FioConfig seq_cfg;
    seq_cfg.randomFraction = 0.0;
    seq_cfg.iodepth = 1;
    workload::FioWorkload job(sim, layer, cg, seq_cfg);
    job.start();
    sim.runUntil(100 * sim::kMsec);
    EXPECT_GT(sequential_seen, 10u);
    // Only the very first IO of the stream classifies as random.
    EXPECT_LE(random_seen, 2u);
}

} // namespace
