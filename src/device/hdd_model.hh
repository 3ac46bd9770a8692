/**
 * @file
 * Spinning-disk model.
 *
 * A single-actuator disk with NCQ-style internal scheduling: the
 * drive holds up to queueDepth accepted requests and picks the next
 * one to service by positional cost — a request continuing the
 * current head position is free of seek, otherwise shortest-seek
 * first, with an aging bound so distant requests cannot starve.
 * This reproduces what matters for Fig. 12 of the paper: contiguous
 * runs from interleaved sequential streams get batched (so
 * sequential throughput survives multi-tenancy), while random IO
 * pays a distance-dependent seek plus rotational latency.
 */

#ifndef IOCOST_DEVICE_HDD_MODEL_HH
#define IOCOST_DEVICE_HDD_MODEL_HH

#include <cstdint>
#include <deque>
#include <string>

#include "blk/bio_state.hh"
#include "blk/block_device.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace iocost::device {

/** Static description of a spinning disk. */
struct HddSpec
{
    std::string name = "hdd-7200rpm";

    /** Host-visible queue slots (NCQ depth). */
    uint32_t queueDepth = 32;

    /** Capacity in bytes (bounds seek distance scaling). */
    uint64_t capacityBytes = 4ull << 40;

    /** Track-to-track seek. */
    sim::Time seekMin = 500 * sim::kUsec;
    /** Full-stroke seek. */
    sim::Time seekMax = 14 * sim::kMsec;
    /** One platter revolution (7200 rpm = 8.33 ms). */
    sim::Time rotationPeriod = 8333 * sim::kUsec;

    /** Sequential media transfer rate, bytes/sec. */
    double transferBps = 180e6;

    /** Write-settle overhead added to writes. */
    sim::Time writeSettle = 100 * sim::kUsec;

    /** Requests older than this are serviced first (anti-starve). */
    sim::Time maxWait = 60 * sim::kMsec;

    /** Field by field: the profile cache keys on the whole spec. */
    bool operator==(const HddSpec &) const = default;
};

/**
 * Discrete-event spinning disk.
 */
class HddModel : public blk::BlockDevice
{
  public:
    HddModel(sim::Simulator &sim, HddSpec spec);

    bool submit(blk::BioPtr &bio) override;
    uint32_t queueDepth() const override { return spec_.queueDepth; }
    uint32_t inFlight() const override
    {
        return static_cast<uint32_t>(queue_.size()) +
               (serving_ ? 1 : 0);
    }
    std::string modelName() const override { return spec_.name; }

    const HddSpec &spec() const { return spec_; }

    /** Replace the spec (what-if device-profile queries); the spec
     *  is serialized state, so restore rolls a swap back. */
    void setSpec(HddSpec spec) { spec_ = std::move(spec); }

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    struct Pending
    {
        blk::BioPtr bio;
        sim::Time accepted;
    };

    /** Positional service time from the current head position. */
    sim::Time serviceTime(const blk::Bio &bio);

    /** Pick and service the best queued request. */
    void maybeStartService();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.string(self.spec_.name);
        t.value(self.spec_.queueDepth);
        t.value(self.spec_.capacityBytes);
        t.value(self.spec_.seekMin);
        t.value(self.spec_.seekMax);
        t.value(self.spec_.rotationPeriod);
        t.value(self.spec_.transferBps);
        t.value(self.spec_.writeSettle);
        t.value(self.spec_.maxWait);

        t.rng(self.rng_);

        // NCQ backlog: each waiting bio deep-clones into the image.
        // Loading destroys the current backlog before cloning any.
        if constexpr (Tape::kLoading)
            self.queue_.clear();
        t.template size<uint64_t>(self.queue_);
        for (auto &p : self.queue_) {
            blk::stateBio(t, p.bio);
            t.value(p.accepted);
        }
        t.value(self.serving_);
        t.value(self.headPos_);
    }

    sim::Simulator &sim_;
    HddSpec spec_;
    sim::Rng rng_;

    std::deque<Pending> queue_;
    bool serving_ = false;
    /** Byte position the head will rest at after current service. */
    uint64_t headPos_ = 0;
};

} // namespace iocost::device

#endif // IOCOST_DEVICE_HDD_MODEL_HH
