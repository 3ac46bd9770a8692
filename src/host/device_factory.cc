#include "host/device_factory.hh"

#include <stdexcept>
#include <type_traits>
#include <variant>

#include "device/device_profiles.hh"
#include "profile/device_profiler.hh"

namespace iocost::host {

std::unique_ptr<blk::BlockDevice>
makeNamedDevice(const std::string &name, sim::Simulator &sim,
                core::LinearModelConfig *model_out)
{
    const profile::TableEntry &row = profile::namedDevice(name);
    if (model_out)
        *model_out = row.model;
    return device::makeDevice(sim, row.spec);
}

void
applyDeviceProfile(blk::BlockDevice &dev, const std::string &profile)
{
    const profile::TableEntry &row = profile::namedDevice(profile);
    std::visit(
        [&](const auto &spec) {
            using Model = typename device::ModelOf<
                std::decay_t<decltype(spec)>>::type;
            auto *live = dynamic_cast<Model *>(&dev);
            if (live == nullptr) {
                throw std::invalid_argument(
                    "device profile \"" + profile +
                    "\" does not fit device \"" + dev.modelName() +
                    "\"; a live device can only swap to a profile "
                    "of its own kind");
            }
            live->setSpec(spec);
        },
        row.spec);
}

} // namespace iocost::host
