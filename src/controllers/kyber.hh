/**
 * @file
 * Kyber: latency-oriented token scheduler.
 *
 * Kyber bounds the per-direction number of in-flight requests,
 * shrinking the async (write) depth whenever observed read latencies
 * exceed their target, so synchronous reads keep their latency even
 * under write floods. No cgroup awareness. Matches the paper's
 * characterization: overhead indistinguishable from no scheduler,
 * machine-wide properties only.
 */

#ifndef IOCOST_CONTROLLERS_KYBER_HH
#define IOCOST_CONTROLLERS_KYBER_HH

#include <deque>
#include <optional>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"

namespace iocost::controllers {

/** Tunables mirroring the kernel's kyber sysfs knobs. */
struct KyberConfig
{
    /** Target p90 read completion latency. */
    sim::Time readTarget = 2 * sim::kMsec;
    /** Target p90 write completion latency. */
    sim::Time writeTarget = 10 * sim::kMsec;
    /** Depth-adjustment window. */
    sim::Time window = 25 * sim::kMsec;
    /** Maximum write in-flight depth. */
    unsigned maxWriteDepth = 128;
};

/**
 * Kyber scheduler.
 */
class Kyber : public blk::IoController
{
  public:
    explicit Kyber(KyberConfig cfg = {})
        : cfg_(cfg), writeDepth_(cfg.maxWriteDepth)
    {}

    blk::ControllerCaps
    caps() const override
    {
        return blk::ControllerCaps{
            .name = "kyber",
            .lowOverhead = true,
            .workConserving = true,
            .memoryManagementAware = false,
            .proportionalFairness = false,
            .cgroupControl = false,
        };
    }

    sim::Time issueCpuCost() const override { return 200; }

    void attach(blk::BlockLayer &layer) override;
    void onSubmit(blk::BioPtr bio) override;
    void onComplete(const blk::Bio &bio,
                    const blk::CompletionInfo &info) override;

    /** Current adaptive write depth (for tests). */
    unsigned writeDepth() const { return writeDepth_; }

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    void pump();
    void adjust();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.writeDepth_);
        t.value(self.writeInFlight_);
        blk::stateBios(t, self.writes_);
        t.sub(self.windowReadLat_);
        t.sub(self.windowWriteLat_);
        t.optional(self.timer_, "Kyber::loadState: timer mismatch");
    }

    KyberConfig cfg_;
    unsigned writeDepth_;
    unsigned writeInFlight_ = 0;
    std::deque<blk::BioPtr> writes_;
    stat::Histogram windowReadLat_;
    stat::Histogram windowWriteLat_;
    std::optional<sim::PeriodicTimer> timer_;
};

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_KYBER_HH
