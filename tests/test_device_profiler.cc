/**
 * @file
 * Device profiling (paper §3.2). The eight fio dimensions run
 * concurrently, each on its own device, simulator and seed, so a
 * profile must equal the back-to-back run bit for bit: the golden
 * values below were printed with %.17g by the sequential profiler.
 * Also covers the profile cache under concurrent first use, its
 * whole-spec key, exception propagation out of the dimension pool,
 * the device vocabulary, and the committed table of named-device
 * profiles, one test per row.
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
#include "device/ssd_model.hh"
#include "profile/device_profiler.hh"

namespace iocost::profile {

/** A table row prints as its name, which ctest shows after each
 *  table test's name ("... # GetParam() = G"). */
void
PrintTo(const TableEntry &row, std::ostream *os)
{
    *os << row.name;
}

} // namespace iocost::profile

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

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Whether @p r is what @p row commits, bit for bit. */
bool
matchesRow(const profile::TableEntry &row, const ProfileResult &r)
{
    const core::LinearModelConfig &m = row.model;
    return sameBits(m.rbps, r.model.rbps) &&
           sameBits(m.rseqiops, r.model.rseqiops) &&
           sameBits(m.rrandiops, r.model.rrandiops) &&
           sameBits(m.wbps, r.model.wbps) &&
           sameBits(m.wseqiops, r.model.wseqiops) &&
           sameBits(m.wrandiops, r.model.wrandiops) &&
           sameBits(m.rrandiops, r.randReadIops) &&
           sameBits(m.rseqiops, r.seqReadIops) &&
           sameBits(m.wrandiops, r.randWriteIops) &&
           sameBits(m.wseqiops, r.seqWriteIops) &&
           row.readLatency == r.readLatency &&
           row.writeLatency == r.writeLatency;
}

/** @p r as the numbers of a src/profile/profile_table.cc row. */
std::string
rowNumbers(const ProfileResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "         {%a, %a, %a,\n"
                  "          %a, %a, %a},\n"
                  "         %" PRId64 ", %" PRId64 "},\n",
                  r.model.rbps, r.model.rseqiops, r.model.rrandiops,
                  r.model.wbps, r.model.wseqiops, r.model.wrandiops,
                  r.readLatency, r.writeLatency);
    return buf;
}

TEST(NamedDevices, Vocabulary)
{
    const std::vector<profile::TableEntry> &table =
        profile::profileTable();
    std::vector<std::string> names;
    for (const profile::TableEntry &e : table)
        names.push_back(e.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "oldgen", "newgen", "enterprise", "A", "B", "C",
                         "D", "E", "F", "G", "H", "hdd", "gp3", "io2",
                         "pd-balanced", "pd-ssd"}));
    // Names and specs are unique, so a name finds one row and a spec
    // maps back to one name (the fleet's canonical() relies on it).
    for (size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(&profile::namedDevice(table[i].name), &table[i]);
        for (size_t j = i + 1; j < table.size(); ++j) {
            EXPECT_NE(table[i].name, table[j].name);
            EXPECT_FALSE(table[i].spec == table[j].spec)
                << table[i].name << " and " << table[j].name;
        }
    }
}

class DeviceProfilerTable
    : public ::testing::TestWithParam<profile::TableEntry>
{
};

TEST_P(DeviceProfilerTable, EntryEqualsColdProfile)
{
    const profile::TableEntry &row = GetParam();
    const ProfileResult cold = DeviceProfiler::profile(
        row.name, [&row](sim::Simulator &sim) {
            return device::makeDevice(sim, row.spec);
        });
    EXPECT_TRUE(matchesRow(row, cold))
        << "stale table row \"" << row.name
        << "\"; replace its numbers in src/profile/profile_table.cc "
           "with:\n"
        << rowNumbers(cold);
}

INSTANTIATE_TEST_SUITE_P(
    Named, DeviceProfilerTable,
    ::testing::ValuesIn(profile::profileTable()),
    [](const ::testing::TestParamInfo<profile::TableEntry> &info) {
        std::string id = info.param.name;
        std::replace(id.begin(), id.end(), '-', '_');
        return id;
    });

} // namespace
