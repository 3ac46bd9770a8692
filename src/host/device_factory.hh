/**
 * @file
 * Named devices: the CLI/scenario device names to constructed device
 * models.
 *
 * iocost_sim, the what-if service, and tests all accept the same
 * device vocabulary: the names of the rows of the profile table
 * (profile::profileTable, src/profile/profile_table.cc), each with
 * its spec and profiled cost model.
 */

#ifndef IOCOST_HOST_DEVICE_FACTORY_HH
#define IOCOST_HOST_DEVICE_FACTORY_HH

#include <memory>
#include <string>

#include "blk/block_device.hh"
#include "core/cost_model.hh"
#include "sim/simulator.hh"

namespace iocost::host {

/**
 * Build the device of a profile table row by its name: an evaluation
 * SSD, a Fig. 3 fleet SSD, the nearline spinning disk or a Fig. 17
 * cloud volume.
 *
 * @param model_out When non-null, receives the profiled linear cost
 *        model for the device (what an io.cost.model line tuned for
 *        this hardware would say).
 * @throws std::invalid_argument on an unknown name; the message
 *         lists every name.
 */
std::unique_ptr<blk::BlockDevice>
makeNamedDevice(const std::string &name, sim::Simulator &sim,
                core::LinearModelConfig *model_out = nullptr);

/**
 * Swap a live device's spec to the named profile, in place (the
 * what-if "device profile D -> G" query). The replacement must be
 * the same device kind — an SSD model can take any SSD profile but
 * not hdd or a cloud volume. The installed controller keeps its
 * configuration (including any iocost cost model tuned for the old
 * profile): the query answers "what if the hardware's behaviour
 * changed under this configuration", which is exactly the model
 * staleness the paper's QoS vrate clamps absorb.
 *
 * @throws std::invalid_argument on an unknown profile name, or
 *         `device profile "X" does not fit device "M"; ...` when the
 *         live device is not of the profile's kind.
 */
void applyDeviceProfile(blk::BlockDevice &dev,
                        const std::string &profile);

} // namespace iocost::host

#endif // IOCOST_HOST_DEVICE_FACTORY_HH
