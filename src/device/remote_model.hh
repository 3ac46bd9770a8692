/**
 * @file
 * Remote (cloud) block-volume model.
 *
 * Models EBS/Persistent-Disk style volumes: a provisioned IOPS cap
 * and throughput cap enforced server-side, a network round trip with
 * jitter on every request, and substantial internal parallelism (the
 * backend is a distributed service, not a single device). Reproduces
 * the latency floors and provisioned ceilings that Fig. 17 of the
 * paper exercises.
 */

#ifndef IOCOST_DEVICE_REMOTE_MODEL_HH
#define IOCOST_DEVICE_REMOTE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace iocost::device {

/** Static description of a remote volume. */
struct RemoteSpec
{
    std::string name = "remote";

    /** Host-visible queue slots. */
    uint32_t queueDepth = 256;

    /** Provisioned IOPS ceiling. */
    double iopsCap = 3000;

    /** Provisioned throughput ceiling, bytes/sec. */
    double bpsCap = 125e6;

    /** Median network + service round trip. */
    sim::Time baseRtt = 900 * sim::kUsec;

    /** Log-normal RTT jitter sigma. */
    double rttSigma = 0.25;

    /** Extra per-byte service time at the backend. */
    double nsPerByte = 0.5;

    /** Field by field: the profile cache keys on the whole spec. */
    bool operator==(const RemoteSpec &) const = default;
};

/**
 * Discrete-event remote volume.
 */
class RemoteModel : public blk::BlockDevice
{
  public:
    RemoteModel(sim::Simulator &sim, RemoteSpec spec);

    bool submit(blk::BioPtr &bio) override;
    uint32_t queueDepth() const override { return spec_.queueDepth; }
    uint32_t inFlight() const override { return inFlight_; }
    std::string modelName() const override { return spec_.name; }

    const RemoteSpec &spec() const { return spec_; }

    /** Replace the spec (what-if device-profile queries); the spec
     *  is serialized state, so restore rolls a swap back. */
    void setSpec(RemoteSpec spec) { spec_ = std::move(spec); }

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.string(self.spec_.name);
        t.value(self.spec_.queueDepth);
        t.value(self.spec_.iopsCap);
        t.value(self.spec_.bpsCap);
        t.value(self.spec_.baseRtt);
        t.value(self.spec_.rttSigma);
        t.value(self.spec_.nsPerByte);
        t.rng(self.rng_);
        t.value(self.limiterNext_);
        t.value(self.inFlight_);
    }

    sim::Simulator &sim_;
    RemoteSpec spec_;
    sim::Rng rng_;

    /**
     * Virtual finish time of the provisioning rate limiter: each
     * request pushes it forward by 1/iopsCap + size/bpsCap; requests
     * arriving while it is in the future queue behind it.
     */
    sim::Time limiterNext_ = 0;
    uint32_t inFlight_ = 0;
};

} // namespace iocost::device

#endif // IOCOST_DEVICE_REMOTE_MODEL_HH
