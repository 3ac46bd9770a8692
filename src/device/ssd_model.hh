/**
 * @file
 * Parametric SSD model.
 *
 * The model reproduces the controller-visible behaviour of an SSD:
 *
 *  - `channels` parallel service units (flash channels / dies): each
 *    request occupies one unit for a service time derived from its
 *    direction, sequentiality, and size — the same feature set the
 *    IOCost linear cost model uses (paper §3.2), plus log-normal
 *    jitter;
 *  - a bounded host-visible queue (`queueDepth` slots), whose
 *    depletion is IOCost's saturation signal (§3.3);
 *  - a write buffer with burst-then-degrade dynamics: writes consume
 *    buffer credit refilled at the sustained write rate; once
 *    depleted, garbage collection inflates write (and, collaterally,
 *    read) service times. This reproduces the "over-exert in short
 *    bursts then slow down drastically" SSD idiosyncrasy the paper
 *    motivates IOCost's dynamic vrate with (§1, §3.3).
 */

#ifndef IOCOST_DEVICE_SSD_MODEL_HH
#define IOCOST_DEVICE_SSD_MODEL_HH

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "blk/block_device.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace iocost::device {

/**
 * Static description of one SSD model. All service times are per
 * channel; peak random-read IOPS ~= channels / readBaseRand.
 */
struct SsdSpec
{
    std::string name = "ssd";

    /** Host-visible queue slots (in-flight request limit). */
    uint32_t queueDepth = 256;

    /** Parallel internal service units. */
    uint32_t channels = 16;

    /** Base service time for a sequential read. */
    sim::Time readBaseSeq = 90 * sim::kUsec;
    /** Base service time for a random read. */
    sim::Time readBaseRand = 100 * sim::kUsec;
    /** Base service time for a sequential (buffered) write. */
    sim::Time writeBaseSeq = 25 * sim::kUsec;
    /** Base service time for a random (buffered) write. */
    sim::Time writeBaseRand = 30 * sim::kUsec;

    /** Transfer cost per byte (read). */
    double readNsPerByte = 2.0;
    /** Transfer cost per byte (write). */
    double writeNsPerByte = 1.5;

    /** Log-normal service-time jitter (sigma in log space). */
    double jitterSigma = 0.08;

    /** Burst write-buffer capacity in bytes. */
    uint64_t writeBufferBytes = 256ull << 20;
    /** Sustained (post-buffer) write drain rate, bytes/sec. */
    double sustainedWriteBps = 400e6;
    /** Write service-time multiplier while GC is active. */
    double gcWriteMult = 4.0;
    /** Read service-time multiplier while GC is active. */
    double gcReadMult = 2.5;

    /**
     * Firmware hiccup injection (off when interval is 0): at
     * exponentially distributed intervals the whole device freezes
     * for hiccupDuration — the "over-exert in short bursts then slow
     * down drastically" / unpredictable-behaviour idiosyncrasy the
     * paper repeatedly observes in production SSDs (§1, §5).
     */
    sim::Time hiccupMeanInterval = 0;
    sim::Time hiccupDuration = 0;

    /** Field by field: the profile cache keys on the whole spec. */
    bool operator==(const SsdSpec &) const = default;
};

/**
 * Discrete-event SSD.
 */
class SsdModel : public blk::BlockDevice
{
  public:
    /**
     * @param sim Simulation context.
     * @param spec Static device description.
     */
    SsdModel(sim::Simulator &sim, SsdSpec spec);

    bool submit(blk::BioPtr &bio) override;
    uint32_t queueDepth() const override { return spec_.queueDepth; }
    uint32_t inFlight() const override { return inFlight_; }
    std::string modelName() const override { return spec_.name; }

    /** The static spec (benches read peak rates from it). */
    const SsdSpec &spec() const { return spec_; }

    /** @return true while the write buffer is depleted (GC active). */
    bool
    gcActive() const
    {
        const_cast<SsdModel *>(this)->refillWriteCredit();
        return writeCredit_ < gcExitCredit();
    }

    /** Remaining write-buffer credit in bytes. */
    double
    writeCredit() const
    {
        const_cast<SsdModel *>(this)->refillWriteCredit();
        return writeCredit_;
    }

    /** Injected firmware hiccups so far. */
    uint64_t hiccups() const { return hiccups_; }

    /**
     * Replace the spec (what-if device-profile queries). The spec is
     * mutable state — it is serialized by saveState so a restore
     * rolls a profile change back. Queue depth must not shrink below
     * the in-flight count; callers swap profiles at a checkpoint,
     * where the block layer has quiesced nothing — so the new depth
     * simply takes effect for future admissions.
     */
    void setSpec(SsdSpec spec) { spec_ = std::move(spec); }

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    sim::Time serviceTime(const blk::Bio &bio);
    void refillWriteCredit();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        // The spec is mutable (what-if profile swaps), so it is state.
        t.string(self.spec_.name);
        t.value(self.spec_.queueDepth);
        t.value(self.spec_.channels);
        t.value(self.spec_.readBaseSeq);
        t.value(self.spec_.readBaseRand);
        t.value(self.spec_.writeBaseSeq);
        t.value(self.spec_.writeBaseRand);
        t.value(self.spec_.readNsPerByte);
        t.value(self.spec_.writeNsPerByte);
        t.value(self.spec_.jitterSigma);
        t.value(self.spec_.writeBufferBytes);
        t.value(self.spec_.sustainedWriteBps);
        t.value(self.spec_.gcWriteMult);
        t.value(self.spec_.gcReadMult);
        t.value(self.spec_.hiccupMeanInterval);
        t.value(self.spec_.hiccupDuration);

        t.rng(self.rng_);

        t.pods(self.channelHeap_);
        t.value(self.inFlight_);
        t.value(self.lastEndOffset_);
        t.value(self.writeCredit_);
        t.value(self.lastRefill_);
        t.value(self.gcNext_);
        t.value(self.nextHiccup_);
        t.value(self.hiccups_);
        t.value(self.lastGcTelemetry_);
    }
    double gcExitCredit() const
    {
        // Hysteresis: GC is considered active until the buffer
        // recovers to 10% to avoid oscillating at the boundary.
        return 0.10 * static_cast<double>(spec_.writeBufferBytes);
    }

    sim::Simulator &sim_;
    SsdSpec spec_;
    sim::Rng rng_;

    /**
     * Min-heap over the channels' next-free times. Only the value of
     * the minimum matters for scheduling (replacing any minimal
     * element with the new completion time evolves the multiset the
     * same way a first-minimum scan would), so the heap keeps bare
     * times and selection costs O(log channels), not O(channels).
     */
    std::vector<sim::Time> channelHeap_;
    uint32_t inFlight_ = 0;
    uint64_t lastEndOffset_ = UINT64_MAX;

    double writeCredit_ = 0.0;
    sim::Time lastRefill_ = 0;
    /** GC admission pacing cursor (see submit()). */
    sim::Time gcNext_ = 0;
    /** Next injected firmware hiccup (kTimeNever when disabled). */
    sim::Time nextHiccup_ = sim::kTimeNever;
    uint64_t hiccups_ = 0;
    /** Last GC state published, for edge-triggered telemetry. */
    bool lastGcTelemetry_ = false;
};

} // namespace iocost::device

#endif // IOCOST_DEVICE_SSD_MODEL_HH
