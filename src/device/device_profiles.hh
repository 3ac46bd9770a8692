/**
 * @file
 * The device zoo: named specs for every device the paper's
 * evaluation uses, and the one spec -> model dispatch.
 *
 * Absolute parameters are plausible stand-ins for the paper's
 * unnamed hardware (see DESIGN.md substitution table); what matters
 * is that the *relative* characteristics match the paper's
 * description: the three evaluation SSDs span old-gen commercial to
 * enterprise grade, the fleet devices A-H are heterogeneous in both
 * IOPS and latency (Fig. 3), and the cloud volumes have provisioned
 * ceilings and millisecond-class RTTs (Fig. 17).
 */

#ifndef IOCOST_DEVICE_DEVICE_PROFILES_HH
#define IOCOST_DEVICE_DEVICE_PROFILES_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "blk/block_device.hh"
#include "device/hdd_model.hh"
#include "device/remote_model.hh"
#include "device/ssd_model.hh"
#include "sim/simulator.hh"

namespace iocost::device {

/** A spec of any device kind the simulator models. */
using DeviceSpec = std::variant<SsdSpec, HddSpec, RemoteSpec>;

/** The model class that runs a spec of type @p Spec. */
template <typename Spec> struct ModelOf;
template <> struct ModelOf<SsdSpec> { using type = SsdModel; };
template <> struct ModelOf<HddSpec> { using type = HddModel; };
template <> struct ModelOf<RemoteSpec> { using type = RemoteModel; };

/** A fresh model of @p spec's kind, running @p spec, in @p sim. */
std::unique_ptr<blk::BlockDevice> makeDevice(sim::Simulator &sim,
                                             const DeviceSpec &spec);

/** Older-generation commercial SSD (evaluation device 1). */
SsdSpec oldGenSsd();

/** Newer-generation commercial SSD (evaluation device 2). */
SsdSpec newGenSsd();

/** High-end enterprise SSD (evaluation device 3, ~750k read IOPS). */
SsdSpec enterpriseSsd();

/**
 * Fleet SSD profile for Fig. 3.
 *
 * @param letter 'A' through 'H'.
 */
SsdSpec fleetSsd(char letter);

/** All eight fleet profiles, A first. */
std::vector<SsdSpec> fleetSsds();

/** 7200-rpm nearline spinning disk (Fig. 12). */
HddSpec nearlineHdd();

/** AWS EBS gp3 provisioned at 3000 IOPS. */
RemoteSpec awsGp3();

/** AWS EBS io2 provisioned at 64000 IOPS. */
RemoteSpec awsIo2();

/** Google Cloud Persistent Disk, balanced. */
RemoteSpec gcpBalanced();

/** Google Cloud Persistent Disk, SSD. */
RemoteSpec gcpSsd();

/** All four cloud volume profiles in Fig. 17 order. */
std::vector<RemoteSpec> cloudVolumes();

} // namespace iocost::device

#endif // IOCOST_DEVICE_DEVICE_PROFILES_HH
