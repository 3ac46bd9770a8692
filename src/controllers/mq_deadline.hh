/**
 * @file
 * mq-deadline: the default Linux multiqueue IO scheduler.
 *
 * Machine-wide scheduling only (no cgroup awareness): reads are
 * preferred over writes, bounded by per-direction expiry deadlines
 * and a batching limit that prevents write starvation. Reproduced at
 * the granularity the paper evaluates it: it ensures "respectable
 * machine-wide performance" but provides no isolation.
 */

#ifndef IOCOST_CONTROLLERS_MQ_DEADLINE_HH
#define IOCOST_CONTROLLERS_MQ_DEADLINE_HH

#include <deque>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "sim/simulator.hh"

namespace iocost::controllers {

/** Tunables mirroring the kernel's mq-deadline sysfs knobs. */
struct MqDeadlineConfig
{
    /** Read FIFO expiry. */
    sim::Time readExpire = 500 * sim::kMsec;
    /** Write FIFO expiry. */
    sim::Time writeExpire = 5 * sim::kSec;
    /** Consecutive same-direction dispatches before switching. */
    unsigned fifoBatch = 16;
};

/**
 * Deadline scheduler.
 */
class MqDeadline : public blk::IoController
{
  public:
    explicit MqDeadline(MqDeadlineConfig cfg = {})
        : cfg_(cfg)
    {}

    blk::ControllerCaps
    caps() const override
    {
        return blk::ControllerCaps{
            .name = "mq-deadline",
            .lowOverhead = true,
            .workConserving = true,
            .memoryManagementAware = false,
            .proportionalFairness = false,
            .cgroupControl = false,
        };
    }

    sim::Time issueCpuCost() const override { return 1600; }

    void onSubmit(blk::BioPtr bio) override;
    void onComplete(const blk::Bio &bio,
                    const blk::CompletionInfo &info) override;

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    bool deviceHasRoom() const;
    void pump();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        blk::stateBios(t, self.reads_);
        blk::stateBios(t, self.writes_);
        t.value(self.batchCount_);
        t.value(self.batchDir_);
    }

    MqDeadlineConfig cfg_;
    std::deque<blk::BioPtr> reads_;
    std::deque<blk::BioPtr> writes_;
    unsigned batchCount_ = 0;
    blk::Op batchDir_ = blk::Op::Read;
};

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_MQ_DEADLINE_HH
