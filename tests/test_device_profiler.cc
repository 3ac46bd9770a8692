/**
 * @file
 * Device profiling (paper §3.2). The eight fio dimensions run
 * concurrently, each on its own device, simulator and seed, so a
 * profile must equal the back-to-back run bit for bit: the golden
 * values below were printed with %.17g by the sequential profiler.
 * Also covers the profile cache under concurrent first use and
 * exception propagation out of the dimension pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "profile/device_profiler.hh"

namespace {

using namespace iocost;
using profile::DeviceProfiler;
using profile::ProfileResult;

/** The profile of fleet SSD G, the quickest fleet device to profile. */
void
expectFleetSsdG(const ProfileResult &r)
{
    EXPECT_EQ(r.model.rrandiops, 60921.75);
    EXPECT_EQ(r.model.rseqiops, 67053.0);
    EXPECT_EQ(r.model.wrandiops, 48825.75);
    EXPECT_EQ(r.model.wseqiops, 48877.5);
    EXPECT_EQ(r.model.rbps, 2880438272.0);
    EXPECT_EQ(r.model.wbps, 200015872.0);
    EXPECT_EQ(r.randReadIops, 60921.75);
    EXPECT_EQ(r.seqReadIops, 67053.0);
    EXPECT_EQ(r.randWriteIops, 48825.75);
    EXPECT_EQ(r.seqWriteIops, 48877.5);
    EXPECT_EQ(r.readLatency, 98303);
    EXPECT_EQ(r.writeLatency, 47103);
}

TEST(DeviceProfiler, FleetSsdGMatchesGolden)
{
    const device::SsdSpec spec = device::fleetSsd('G');
    const ProfileResult r = DeviceProfiler::profile(
        "fleet-g", [spec](sim::Simulator &sim) {
            return std::make_unique<device::SsdModel>(sim, spec);
        });
    EXPECT_EQ(r.deviceName, "fleet-g");
    expectFleetSsdG(r);
}

TEST(DeviceProfiler, ConcurrentFirstUseSharesOneProfile)
{
    // A name no other test profiles, so the cache is cold here even
    // when the whole binary runs in one process. The name only keys
    // the cache; the device is fleet SSD G.
    device::SsdSpec spec = device::fleetSsd('G');
    spec.name = "fleet-ssd-G-concurrent";

    std::vector<const ProfileResult *> seen(4, nullptr);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < seen.size(); ++t) {
        callers.emplace_back([&seen, &spec, t] {
            seen[t] = &DeviceProfiler::profileSsd(spec);
        });
    }
    for (std::thread &t : callers)
        t.join();

    for (const ProfileResult *r : seen)
        EXPECT_EQ(r, seen[0]);
    EXPECT_EQ(seen[0]->deviceName, "ssd:fleet-ssd-G-concurrent");
    expectFleetSsdG(*seen[0]);
    EXPECT_EQ(&DeviceProfiler::profileSsd(spec), seen[0]);
}

TEST(DeviceProfiler, FactoryExceptionIsRethrown)
{
    const profile::DeviceFactory broken =
        [](sim::Simulator &) -> std::unique_ptr<blk::BlockDevice> {
        throw std::runtime_error("no device");
    };
    try {
        (void)DeviceProfiler::profile("broken", broken);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "no device");
    }
}

} // namespace
