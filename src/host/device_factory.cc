#include "host/device_factory.hh"

#include <optional>
#include <stdexcept>

#include "device/device_profiles.hh"
#include "device/hdd_model.hh"
#include "device/remote_model.hh"
#include "device/ssd_model.hh"
#include "profile/device_profiler.hh"

namespace iocost::host {

std::optional<device::SsdSpec>
ssdByName(const std::string &name)
{
    if (name.size() == 1 && name[0] >= 'A' && name[0] <= 'H')
        return device::fleetSsd(name[0]);
    if (name == "oldgen")
        return device::oldGenSsd();
    if (name == "newgen")
        return device::newGenSsd();
    if (name == "enterprise")
        return device::enterpriseSsd();
    return std::nullopt;
}

namespace {

std::optional<device::RemoteSpec>
remoteByName(const std::string &name)
{
    if (name == "gp3")
        return device::awsGp3();
    if (name == "io2")
        return device::awsIo2();
    if (name == "pd-balanced")
        return device::gcpBalanced();
    if (name == "pd-ssd")
        return device::gcpSsd();
    return std::nullopt;
}

[[noreturn]] void
unknownDevice(const std::string &name)
{
    throw std::invalid_argument(
        "unknown device \"" + name +
        "\" (oldgen, newgen, enterprise, A..H, hdd, gp3, io2, "
        "pd-balanced, pd-ssd)");
}

} // namespace

std::unique_ptr<blk::BlockDevice>
makeNamedDevice(const std::string &name, sim::Simulator &sim,
                core::LinearModelConfig *model_out)
{
    if (const auto ssd = ssdByName(name)) {
        if (model_out) {
            *model_out =
                profile::DeviceProfiler::profileSsd(*ssd).model;
        }
        return std::make_unique<device::SsdModel>(sim, *ssd);
    }
    if (name == "hdd") {
        const device::HddSpec spec = device::nearlineHdd();
        if (model_out) {
            *model_out =
                profile::DeviceProfiler::profileHdd(spec).model;
        }
        return std::make_unique<device::HddModel>(sim, spec);
    }
    if (const auto remote = remoteByName(name)) {
        if (model_out) {
            *model_out =
                profile::DeviceProfiler::profileRemote(*remote)
                    .model;
        }
        return std::make_unique<device::RemoteModel>(sim, *remote);
    }
    unknownDevice(name);
}

void
applyDeviceProfile(blk::BlockDevice &dev, const std::string &profile)
{
    if (auto *ssd = dynamic_cast<device::SsdModel *>(&dev)) {
        if (const auto spec = ssdByName(profile)) {
            ssd->setSpec(*spec);
            return;
        }
        if (profile == "hdd" || remoteByName(profile)) {
            throw std::invalid_argument(
                "device profile \"" + profile +
                "\" is not an SSD; a live device can only swap to "
                "a profile of its own kind");
        }
        unknownDevice(profile);
    }
    if (auto *hdd = dynamic_cast<device::HddModel *>(&dev)) {
        if (profile == "hdd") {
            hdd->setSpec(device::nearlineHdd());
            return;
        }
        throw std::invalid_argument(
            "device profile \"" + profile +
            "\" is not a spinning disk; a live device can only "
            "swap to a profile of its own kind");
    }
    if (auto *rm = dynamic_cast<device::RemoteModel *>(&dev)) {
        if (const auto spec = remoteByName(profile)) {
            rm->setSpec(*spec);
            return;
        }
        if (profile == "hdd" || ssdByName(profile)) {
            throw std::invalid_argument(
                "device profile \"" + profile +
                "\" is not a cloud volume; a live device can only "
                "swap to a profile of its own kind");
        }
        unknownDevice(profile);
    }
    throw std::invalid_argument(
        "device model \"" + dev.modelName() +
        "\" does not support profile swaps");
}

} // namespace iocost::host
