/**
 * @file
 * ReplayDevice — the per-lane device stand-in for sweep execution.
 *
 * A sweep lane must observe the generator's device behavior — the
 * same service durations and the same fault outcomes for the same
 * (bio id, attempt) — while its own controller decides *when* each
 * bio reaches the device. The ReplayDevice provides exactly that: it
 * accepts bios up to the generator device's queue depth and
 * completes each one `duration` after the lane dispatched it, where
 * duration and status come from the shared ServiceLog. It draws no
 * randomness of its own, so every lane sees one device/fault stream.
 *
 * A bio finds its outcome through the log handle it carries
 * (Bio::logHandle), one direct slot index. Lookups routinely miss: a
 * lane whose controller releases a bio with little delay dispatches
 * it *before* the generator's device accepts the original and
 * records the outcome — nearly every bio parks here for a moment.
 * Parked bios are resolved by the ServiceLog's append/close
 * notifications, keyed by id: the pending table is an sim::IdTable
 * id → bio map sized to the queue depth, so each notification costs
 * O(1) per lane, not a scan of the queue depth. In that lockstep
 * case every lane's bio completes at the *same* instant
 * (notification time + duration), so the SweepRunner batches all K
 * completions into one simulator event via resolveDetached() /
 * finishReplayed() instead of paying K event round trips per bio.
 * Once an id is closed, a lane that wants an attempt the generator
 * never made (divergent retry/timeout schedules) is clamped to the
 * last recorded attempt; a closed id with no entries at all (the
 * generator expired the bio before its device ever took it)
 * completes with an error after one tick. A lane bio holds its id's
 * log entry until it terminally completes (see ServiceLog).
 */

#ifndef IOCOST_DEVICE_REPLAY_DEVICE_HH
#define IOCOST_DEVICE_REPLAY_DEVICE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "blk/service_log.hh"
#include "sim/id_table.hh"
#include "sim/simulator.hh"

namespace iocost::device {

/**
 * Device that replays outcomes recorded in a ServiceLog.
 */
class ReplayDevice : public blk::BlockDevice
{
  public:
    /**
     * @param sim Simulation context (shared with the generator).
     * @param log The shared outcome log. The SweepRunner owns its
     *        listener and calls resolveDetached() on every lane.
     * @param queue_depth Queue depth to mirror (the generator
     *        device's, so depletion signals stay comparable).
     * @param model_name Name reported by modelName().
     */
    ReplayDevice(sim::Simulator &sim, const blk::ServiceLog &log,
                 uint32_t queue_depth, std::string model_name);

    bool submit(blk::BioPtr &bio) override;
    uint32_t queueDepth() const override { return depth_; }
    uint32_t inFlight() const override { return inFlight_; }
    std::string modelName() const override { return name_; }

    /**
     * A resolved parked bio awaiting its batched completion. The
     * bio's status is already set; it completes `duration` after
     * the resolving log notification.
     */
    struct Resolved
    {
        ReplayDevice *dev;
        blk::BioPtr bio;
        sim::Time duration;
    };

    /**
     * The ServiceLog recorded or closed @p id: resolve this lane's
     * parked bio with that id, if any, and push the outcome onto
     * @p out instead of scheduling a completion event. The caller
     * (SweepRunner) groups equal-duration outcomes from all lanes
     * into a single simulator event and delivers each via
     * finishReplayed().
     */
    void resolveDetached(uint64_t id, std::vector<Resolved> &out);

    /** Deliver a resolveDetached() outcome (batch event body). */
    void finishReplayed(blk::BioPtr bio, sim::Time duration);

    /** Bios parked on a not-yet-recorded outcome. */
    size_t pendingCount() const { return pending_.size(); }

    /**
     * @name Fused-lane hooks (host::FusedObserver).
     *
     * A fused lane occupies device slots without materializing
     * bios: the observer acquires a slot at issue time, tracks the
     * in-flight record itself, and releases the slot when the fused
     * completion fires. When the lane forks back to the full path,
     * its fused in-flight records are materialized and parked here
     * (adoptParked) — their slots are already counted, so this is
     * park() without the submit() gate.
     * @{
     */

    /** submit()'s admission gate + slot acquisition, bio-less. */
    bool
    fusedAcquire()
    {
        if (inFlight_ >= depth_)
            return false;
        ++inFlight_;
        return true;
    }

    /** Release a slot acquired by fusedAcquire(). */
    void fusedRelease() { --inFlight_; }

    /** Park a materialized fused record; its slot is held. */
    void adoptParked(blk::BioPtr bio) { park(std::move(bio)); }
    /** @} */

  private:
    /** A resolved attempt: completion delay (>= 1 tick) and status. */
    struct Outcome
    {
        sim::Time duration;
        blk::BioStatus status;
    };

    /** @p bio's outcome from the log, or nullopt while its attempt
     *  is still ahead of the log. */
    std::optional<Outcome> outcome(const blk::Bio &bio) const;

    void park(blk::BioPtr bio);
    blk::BioPtr takePending(uint64_t id);

    sim::Simulator &sim_;
    const blk::ServiceLog &log_;
    uint32_t depth_;
    std::string name_;
    uint32_t inFlight_ = 0;
    /** Parked bios by id; twice the queue depth, so it never grows. */
    sim::IdTable<blk::BioPtr> pending_;
};

} // namespace iocost::device

#endif // IOCOST_DEVICE_REPLAY_DEVICE_HH
