#include <stdexcept>

#include "device/device_profiles.hh"
#include "profile/device_profiler.hh"

namespace iocost::profile {

/*
 * One row per device name the simulator accepts. After the name and
 * the spec, each row is what DeviceProfiler::profile reports for the
 * spec at the wrappers' defaults (seed 42, 4 s): the six model
 * parameters in LinearModelConfig order (rbps rseqiops rrandiops
 * wbps wseqiops wrandiops, as in an io.cost.model line), written as
 * hex floats so they are exact, then the read and write p50
 * latencies in ns. Adding a device is adding a row. The
 * DeviceProfilerTable tests re-derive every row bit for bit. After a
 * change to a device model, the fio generator, the block layer or
 * the profiler, they fail and print each stale row's new numbers:
 * copy those over the old ones.
 */
const std::vector<TableEntry> &
profileTable()
{
    static const std::vector<TableEntry> table = {
        {"oldgen", device::oldGenSsd(),
         {0x1.7e9p+31, 0x1.e702cp+16, 0x1.28a84p+16,
          0x1.a38p+27, 0x1.a378p+15, 0x1.a3a88p+15},
         106495, 53247},
        {"newgen", device::newGenSsd(),
         {0x1.4f6ap+33, 0x1.084a9p+18, 0x1.dad68p+17,
          0x1.062p+29, 0x1.0645p+17, 0x1.06418p+17},
         102399, 38911},
        {"enterprise", device::enterpriseSsd(),
         {0x1.72fd8p+35, 0x1.79e718p+19, 0x1.5f69dp+19,
          0x1.ad3p+30, 0x1.ad423p+18, 0x1.ad421p+18},
         102399, 28671},
        {"A", device::fleetSsd('A'),
         {0x1.4d9cp+32, 0x1.32f88p+16, 0x1.15dbp+16,
          0x1.1ep+28, 0x1.1dfap+16, 0x1.1e4c4p+16},
         172031, 69631},
        {"B", device::fleetSsd('B'),
         {0x1.1a94p+32, 0x1.4f18p+16, 0x1.2fc5cp+16,
          0x1.4dcp+28, 0x1.4db3cp+16, 0x1.4dfecp+16},
         131071, 53247},
        {"C", device::fleetSsd('C'),
         {0x1.c054p+32, 0x1.d0384p+16, 0x1.a4608p+16,
          0x1.908p+28, 0x1.907b8p+16, 0x1.90aa8p+16},
         155647, 63487},
        {"D", device::fleetSsd('D'),
         {0x1.1bb2p+33, 0x1.6b35ap+17, 0x1.49674p+17,
          0x1.ddp+28, 0x1.dcc5cp+16, 0x1.dcf8p+16},
         118783, 47103},
        {"E", device::fleetSsd('E'),
         {0x1.8ecp+32, 0x1.15984p+17, 0x1.f7d4cp+16,
          0x1.ad4p+28, 0x1.ad438p+16, 0x1.ad4e4p+16},
         110591, 43007},
        {"F", device::fleetSsd('F'),
         {0x1.552ep+33, 0x1.c6ffep+17, 0x1.9cc3ap+17,
          0x1.1e2p+29, 0x1.1e19ap+17, 0x1.1e1b8p+17},
         114687, 45055},
        {"G", device::fleetSsd('G'),
         {0x1.576p+31, 0x1.05edp+16, 0x1.dbf38p+15,
          0x1.7d8p+27, 0x1.7ddbp+15, 0x1.7d738p+15},
         98303, 47103},
        {"H", device::fleetSsd('H'),
         {0x1.57f9p+34, 0x1.13dd3p+19, 0x1.f55ddp+18,
          0x1.1e2p+30, 0x1.1e216p+18, 0x1.1e216p+18},
         94207, 31743},
        {"hdd", device::nearlineHdd(),
         {0x1.57p+27, 0x1.574p+15, 0x1.8e8p+7,
          0x1.518p+27, 0x1.b614p+14, 0x1.878p+7},
         6029311, 6029311},
        {"gp3", device::awsGp3(),
         {0x1.cap+26, 0x1.557p+11, 0x1.5568p+11,
          0x1.cap+26, 0x1.5568p+11, 0x1.5578p+11},
         1015807, 1015807},
        {"io2", device::awsIo2(),
         {0x1.d5ep+29, 0x1.8c268p+15, 0x1.8c278p+15,
          0x1.d5cp+29, 0x1.8c26p+15, 0x1.8c258p+15},
         507903, 507903},
        {"pd-balanced", device::gcpBalanced(),
         {0x1.b9p+27, 0x1.5434p+12, 0x1.542cp+12,
          0x1.b9p+27, 0x1.542cp+12, 0x1.543p+12},
         1245183, 1245183},
        {"pd-ssd", device::gcpSsd(),
         {0x1.c2cp+28, 0x1.7538p+14, 0x1.7538p+14,
          0x1.c2cp+28, 0x1.7535p+14, 0x1.7535p+14},
         720895, 720895},
    };
    return table;
}

const TableEntry &
namedDevice(const std::string &name)
{
    const std::vector<TableEntry> &table = profileTable();
    for (const TableEntry &e : table) {
        if (e.name == name)
            return e;
    }
    std::string names;
    for (const TableEntry &e : table)
        names += (names.empty() ? "" : ", ") + e.name;
    throw std::invalid_argument("unknown device \"" + name + "\" (" +
                                names + ")");
}

} // namespace iocost::profile
