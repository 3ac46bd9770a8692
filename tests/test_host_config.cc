/**
 * @file
 * Tests for the cgroupfs-style host configuration applier.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/config.hh"
#include "host/host.hh"
#include "sim/parse.hh"

namespace {

using namespace iocost;

std::unique_ptr<host::Host>
makeHost(sim::Simulator &sim, bool memory = false)
{
    host::HostOptions opts;
    opts.controller = "none";
    opts.enableMemory = memory;
    return std::make_unique<host::Host>(
        sim,
        std::make_unique<device::SsdModel>(sim,
                                           device::newGenSsd()),
        opts);
}

/** Config sizes are sim::parseBytes values. */
TEST(HostConfig, ParseSize)
{
    EXPECT_EQ(sim::parseBytes("100"), 100u);
    EXPECT_EQ(sim::parseBytes("2K"), 2048u);
    EXPECT_EQ(sim::parseBytes("3M"), 3ull << 20);
    EXPECT_EQ(sim::parseBytes("2G"), 2ull << 30);
    EXPECT_EQ(sim::parseBytes("1.5G"),
              static_cast<uint64_t>(1.5 * (1ull << 30)));
    for (const char *bad : {"abc", "5X", "", "2Gb"})
        EXPECT_THROW(sim::parseBytes(bad), std::invalid_argument) << bad;

    sim::Simulator sim(140);
    auto hp = makeHost(sim, true);
    ASSERT_TRUE(host::applyConfig(*hp, "workload.slice memory.low=2G"));
    EXPECT_FALSE(host::applyConfig(*hp, "workload.slice memory.low=2Gb"));
}

TEST(HostConfig, FindAndEnsure)
{
    sim::Simulator sim(141);
    auto hp = makeHost(sim);
    host::Host &h = *hp;
    EXPECT_EQ(host::findCgroup(h.tree(), "workload.slice"),
              h.workload());
    EXPECT_EQ(host::findCgroup(h.tree(), "nope/nothing"),
              cgroup::kNone);
    const auto web =
        host::ensureCgroup(h.tree(), "workload.slice/web");
    EXPECT_EQ(h.tree().path(web), "/workload.slice/web");
    // Idempotent.
    EXPECT_EQ(host::ensureCgroup(h.tree(), "workload.slice/web"),
              web);
}

TEST(HostConfig, AppliesWeightsAndCreatesGroups)
{
    sim::Simulator sim(142);
    auto hp = makeHost(sim);
    host::Host &h = *hp;
    const auto result = host::applyConfig(h, R"(
        # production-style host config
        workload.slice           io.weight=500
        workload.slice/web       io.weight=200
        workload.slice/batch     io.weight=50
        system.slice/chef        io.weight=25
    )");
    ASSERT_TRUE(result) << result.error;
    EXPECT_EQ(result.applied, 4u);
    EXPECT_EQ(h.tree().weight(h.workload()), 500u);
    const auto web =
        host::findCgroup(h.tree(), "workload.slice/web");
    ASSERT_NE(web, cgroup::kNone);
    EXPECT_EQ(h.tree().weight(web), 200u);
    const auto chef =
        host::findCgroup(h.tree(), "system.slice/chef");
    ASSERT_NE(chef, cgroup::kNone);
    EXPECT_EQ(h.tree().weight(chef), 25u);
}

TEST(HostConfig, MemoryLowNeedsMemoryManager)
{
    sim::Simulator sim(143);
    auto no_mm_p = makeHost(sim, false);
    host::Host &no_mm = *no_mm_p;
    const auto bad = host::applyConfig(
        no_mm, "workload.slice/web memory.low=1G");
    EXPECT_FALSE(bad);
    EXPECT_NE(bad.error.find("enableMemory"), std::string::npos);

    auto with_mm_p = makeHost(sim, true);
    host::Host &with_mm = *with_mm_p;
    const auto ok = host::applyConfig(
        with_mm, "workload.slice/web memory.low=1G");
    ASSERT_TRUE(ok) << ok.error;
    const auto web =
        host::findCgroup(with_mm.tree(), "workload.slice/web");
    EXPECT_EQ(with_mm.mm().stats(web).protectedBytes, 1ull << 30);
}

TEST(HostConfig, RejectsMalformedLines)
{
    sim::Simulator sim(144);
    auto hp = makeHost(sim);
    host::Host &h = *hp;
    EXPECT_FALSE(host::applyConfig(h, "a/b io.weight"));
    EXPECT_FALSE(host::applyConfig(h, "a/b io.weight=0"));
    EXPECT_FALSE(host::applyConfig(h, "a/b io.weight=999999"));
    EXPECT_FALSE(host::applyConfig(h, "a/b future.key=1"));
    // Earlier lines stay applied.
    const auto partial = host::applyConfig(
        h, "workload.slice io.weight=400\nx bogus=1");
    EXPECT_FALSE(partial);
    EXPECT_EQ(partial.applied, 1u);
    EXPECT_EQ(h.tree().weight(h.workload()), 400u);
}

TEST(HostConfig, BlankAndCommentLinesIgnored)
{
    sim::Simulator sim(145);
    auto hp = makeHost(sim);
    host::Host &h = *hp;
    const auto result = host::applyConfig(h, R"(

        # just a comment
        workload.slice io.weight=300  # trailing comment
    )");
    ASSERT_TRUE(result) << result.error;
    EXPECT_EQ(result.applied, 1u);
    EXPECT_EQ(h.tree().weight(h.workload()), 300u);
}

} // namespace
