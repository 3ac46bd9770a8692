/**
 * @file
 * Offline device profiling (paper §3.2).
 *
 * Reproduces the fio-based methodology the authors upstreamed with
 * iocost: run saturating synthetic workloads against a device —
 * 4k random/sequential reads and writes for the IOPS anchors, large
 * sequential transfers for the byte rates — and emit the six-
 * parameter linear model configuration. The real tool runs its fio
 * jobs back to back because they share one physical device; here
 * every dimension gets a fresh device in a private simulator with its
 * own seed, so nothing couples them and they run concurrently, with
 * results equal to the back-to-back run.
 */

#ifndef IOCOST_PROFILE_DEVICE_PROFILER_HH
#define IOCOST_PROFILE_DEVICE_PROFILER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "core/cost_model.hh"
#include "device/device_profiles.hh"
#include "sim/simulator.hh"

namespace iocost::profile {

/** Factory producing a fresh device inside a given simulator. */
using DeviceFactory = std::function<std::unique_ptr<blk::BlockDevice>(
    sim::Simulator &)>;

/** Everything a profiling pass learns about a device. */
struct ProfileResult
{
    std::string deviceName;

    /** The six-parameter model configuration (Fig. 6 format). */
    core::LinearModelConfig model;

    /** 4k random read IOPS at saturation. */
    double randReadIops = 0;
    /** 4k sequential read IOPS at saturation. */
    double seqReadIops = 0;
    /** 4k random write IOPS at saturation (sustained). */
    double randWriteIops = 0;
    /** 4k sequential write IOPS at saturation (sustained). */
    double seqWriteIops = 0;

    /** Median completion latency of a lone 4k random read. */
    sim::Time readLatency = 0;
    /** Median completion latency of a lone 4k random write. */
    sim::Time writeLatency = 0;
};

/**
 * The profiler.
 */
class DeviceProfiler
{
  public:
    /**
     * Profile an arbitrary device.
     *
     * The eight dimensions run on min(4, hardware threads) workers,
     * the calling thread included, and the result is bit-identical
     * to running them one after another. If a dimension throws, the
     * exception of the first failing dimension is rethrown once all
     * have finished.
     *
     * @param name Reported device name.
     * @param factory Constructs the device under test. It is called
     *        once per dimension from several threads at once, each
     *        call with its own simulator, so it must not mutate
     *        shared state.
     * @param seed Determinism seed; dimension i runs at seed + i + 1.
     * @param run_seconds Measurement duration per dimension (after a
     *        warmup that places write-buffered devices in steady
     *        state).
     */
    static ProfileResult profile(const std::string &name,
                                 const DeviceFactory &factory,
                                 uint64_t seed = 42,
                                 double run_seconds = 4.0);

    /** Convenience: profile an SSD spec. Named specs come from the
     *  table; other specs are profiled once and cached by the whole
     *  spec. */
    static const ProfileResult &profileSsd(const device::SsdSpec &s);

    /** Convenience: profile a remote volume. Named specs come from
     *  the table; other specs are profiled once and cached by the
     *  whole spec. */
    static const ProfileResult &
    profileRemote(const device::RemoteSpec &s);
};

/**
 * One named device: the name the CLIs, scenarios, fleet mixes and
 * what-if queries use, its spec, and its committed profile, which is
 * what the wrappers' cold profile (seed 42, 4 s) reports for
 * @c spec. The four 4k IOPS anchors of a ProfileResult equal the
 * model's, so they are not stored twice.
 */
struct TableEntry
{
    std::string name;
    device::DeviceSpec spec;
    core::LinearModelConfig model;
    sim::Time readLatency = 0;
    sim::Time writeLatency = 0;
};

/**
 * The 16 named devices (src/profile/profile_table.cc): the one device
 * vocabulary, and the initial content of the wrappers' cache. A spec
 * that differs from a named one in any field misses the table.
 */
const std::vector<TableEntry> &profileTable();

/**
 * The table row named @p name.
 * @throws std::invalid_argument `unknown device "X" (...)`, listing
 *         every name in table order, on any other name.
 */
const TableEntry &namedDevice(const std::string &name);

} // namespace iocost::profile

#endif // IOCOST_PROFILE_DEVICE_PROFILER_HH
