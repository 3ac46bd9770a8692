/**
 * @file
 * Named-device factory: one table from CLI/scenario device names to
 * constructed device models.
 *
 * iocost_sim, the what-if service, and tests all accept the same
 * device vocabulary; centralizing the table here keeps the accepted
 * names (and the derived iocost cost models) in one place.
 */

#ifndef IOCOST_HOST_DEVICE_FACTORY_HH
#define IOCOST_HOST_DEVICE_FACTORY_HH

#include <memory>
#include <optional>
#include <string>

#include "blk/block_device.hh"
#include "core/cost_model.hh"
#include "device/ssd_model.hh"
#include "sim/simulator.hh"

namespace iocost::host {

/** The spec of a named SSD ("oldgen", "newgen", "enterprise",
 *  "A".."H"), or nullopt for any other name. */
std::optional<device::SsdSpec> ssdByName(const std::string &name);

/**
 * Build a device model by name.
 *
 * Accepted names: the evaluation SSDs ("oldgen", "newgen",
 * "enterprise"), the Fig. 3 fleet SSDs ("A".."H"), the nearline
 * spinning disk ("hdd"), and the Fig. 17 cloud volumes ("gp3",
 * "io2", "pd-balanced", "pd-ssd").
 *
 * @param model_out When non-null, receives the profiled linear cost
 *        model for the device (what an io.cost.model line tuned for
 *        this hardware would say).
 * @throws std::invalid_argument on an unknown name.
 */
std::unique_ptr<blk::BlockDevice>
makeNamedDevice(const std::string &name, sim::Simulator &sim,
                core::LinearModelConfig *model_out = nullptr);

/**
 * Swap a live device's spec to the named profile, in place (the
 * what-if "device profile D -> G" query). The replacement must be
 * the same device kind — an SSD model can take any SSD profile but
 * not "hdd" or a cloud volume. The installed controller keeps its
 * configuration (including any iocost cost model tuned for the old
 * profile): the query answers "what if the hardware's behaviour
 * changed under this configuration", which is exactly the model
 * staleness the paper's QoS vrate clamps absorb.
 *
 * @throws std::invalid_argument on an unknown profile name or a
 *         device-kind mismatch.
 */
void applyDeviceProfile(blk::BlockDevice &dev,
                        const std::string &profile);

} // namespace iocost::host

#endif // IOCOST_HOST_DEVICE_FACTORY_HH
