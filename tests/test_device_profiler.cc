/**
 * @file
 * Device profiling (paper §3.2). The eight fio dimensions run
 * concurrently, each on its own device, simulator and seed, so a
 * profile must equal the back-to-back run bit for bit: the golden
 * values below were printed with %.17g by the sequential profiler.
 * Also covers the profile cache under concurrent first use, its
 * whole-spec key, exception propagation out of the dimension pool,
 * and the committed table of named-device profiles, one test per
 * name the CLIs accept.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "device/device_profiles.hh"
#include "device/hdd_model.hh"
#include "device/remote_model.hh"
#include "device/ssd_model.hh"
#include "host/device_factory.hh"
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
    // Fleet SSD G under a name no other test profiles: it misses
    // the table, so the cache is cold here even when the whole
    // binary runs in one process.
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

TEST(DeviceProfiler, EditedSpecGetsItsOwnProfile)
{
    // G with half its sustained write rate, still named G: the cache
    // keys on the whole spec, so the edit is profiled, not served
    // G's entry.
    device::SsdSpec g = device::fleetSsd('G');
    g.sustainedWriteBps = 100e6;
    const ProfileResult &named =
        DeviceProfiler::profileSsd(device::fleetSsd('G'));
    const ProfileResult &edited = DeviceProfiler::profileSsd(g);
    expectFleetSsdG(named);
    EXPECT_NE(&edited, &named);
    EXPECT_EQ(edited.deviceName, "ssd:fleet-ssd-G");
    EXPECT_EQ(edited.model.wrandiops, 24414.0);
    EXPECT_EQ(edited.model.wbps, 100139008.0);
    EXPECT_EQ(&DeviceProfiler::profileSsd(g), &edited);
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

/** A device name the CLIs accept and the zoo call behind it. */
struct NamedDevice
{
    const char *name;
    const char *zoo;
};

const NamedDevice kNamedDevices[] = {
    {"oldgen", "device::oldGenSsd()"},
    {"newgen", "device::newGenSsd()"},
    {"enterprise", "device::enterpriseSsd()"},
    {"A", "device::fleetSsd('A')"},
    {"B", "device::fleetSsd('B')"},
    {"C", "device::fleetSsd('C')"},
    {"D", "device::fleetSsd('D')"},
    {"E", "device::fleetSsd('E')"},
    {"F", "device::fleetSsd('F')"},
    {"G", "device::fleetSsd('G')"},
    {"H", "device::fleetSsd('H')"},
    {"hdd", "device::nearlineHdd()"},
    {"gp3", "device::awsGp3()"},
    {"io2", "device::awsIo2()"},
    {"pd-balanced", "device::gcpBalanced()"},
    {"pd-ssd", "device::gcpSsd()"},
};

void
PrintTo(const NamedDevice &d, std::ostream *os)
{
    *os << d.name;
}

/**
 * A named device as the CLIs build it (host::makeNamedDevice): its
 * spec, the name its wrapper reports and the wrapper's profile.
 */
struct Resolved
{
    profile::DeviceSpec spec;
    std::string deviceName;
    const ProfileResult *served;
};

Resolved
resolve(const std::string &name)
{
    sim::Simulator sim(1);
    const std::unique_ptr<blk::BlockDevice> dev =
        host::makeNamedDevice(name, sim);
    if (const auto *ssd = dynamic_cast<device::SsdModel *>(dev.get())) {
        const device::SsdSpec &s = ssd->spec();
        return {s, "ssd:" + s.name, &DeviceProfiler::profileSsd(s)};
    }
    if (const auto *hdd = dynamic_cast<device::HddModel *>(dev.get())) {
        const device::HddSpec &s = hdd->spec();
        return {s, "hdd:" + s.name, &DeviceProfiler::profileHdd(s)};
    }
    const device::RemoteSpec &s =
        dynamic_cast<device::RemoteModel &>(*dev).spec();
    return {s, "remote:" + s.name, &DeviceProfiler::profileRemote(s)};
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameProfile(const ProfileResult &a, const ProfileResult &b)
{
    return a.deviceName == b.deviceName &&
           sameBits(a.model.rbps, b.model.rbps) &&
           sameBits(a.model.rseqiops, b.model.rseqiops) &&
           sameBits(a.model.rrandiops, b.model.rrandiops) &&
           sameBits(a.model.wbps, b.model.wbps) &&
           sameBits(a.model.wseqiops, b.model.wseqiops) &&
           sameBits(a.model.wrandiops, b.model.wrandiops) &&
           sameBits(a.randReadIops, b.randReadIops) &&
           sameBits(a.seqReadIops, b.seqReadIops) &&
           sameBits(a.randWriteIops, b.randWriteIops) &&
           sameBits(a.seqWriteIops, b.seqWriteIops) &&
           a.readLatency == b.readLatency &&
           a.writeLatency == b.writeLatency;
}

/** @p r as a src/profile/profile_table.cc line. */
std::string
tableLine(const char *zoo, const ProfileResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "        {%s,\n"
                  "         {%a, %a, %a,\n"
                  "          %a, %a, %a},\n"
                  "         %" PRId64 ", %" PRId64 "},\n",
                  zoo, r.model.rbps, r.model.rseqiops,
                  r.model.rrandiops, r.model.wbps, r.model.wseqiops,
                  r.model.wrandiops, r.readLatency, r.writeLatency);
    return buf;
}

class DeviceProfilerTable : public ::testing::TestWithParam<NamedDevice>
{
};

TEST_P(DeviceProfilerTable, EntryEqualsColdProfile)
{
    const std::string name = GetParam().name;
    const Resolved r = resolve(name);
    const ProfileResult cold = DeviceProfiler::profile(
        r.deviceName, [&name](sim::Simulator &sim) {
            return host::makeNamedDevice(name, sim);
        });
    const std::string line = tableLine(GetParam().zoo, cold);

    const std::vector<profile::TableEntry> &table =
        profile::profileTable();
    ASSERT_TRUE(std::any_of(table.begin(), table.end(),
                            [&r](const profile::TableEntry &e) {
                                return e.spec == r.spec;
                            }))
        << "no table entry for " << name
        << "; add to src/profile/profile_table.cc:\n"
        << line;
    EXPECT_TRUE(sameProfile(*r.served, cold))
        << "stale table entry for " << name
        << "; replace it in src/profile/profile_table.cc with:\n"
        << line;
}

INSTANTIATE_TEST_SUITE_P(
    Named, DeviceProfilerTable, ::testing::ValuesIn(kNamedDevices),
    [](const ::testing::TestParamInfo<NamedDevice> &info) {
        std::string id = info.param.name;
        std::replace(id.begin(), id.end(), '-', '_');
        return id;
    });

} // namespace
