/**
 * @file
 * BFQ: Budget Fair Queueing (Valente & Checconi), simplified to the
 * properties the paper evaluates.
 *
 * BFQ grants cgroups exclusive *service turns*: the in-service queue
 * dispatches until its sector budget is exhausted or it runs dry,
 * then the queue with the smallest weighted virtual finish time is
 * selected next (B-WF2Q+). Fairness is accounted in sectors
 * (bytes) served — not device occupancy — which is exactly the
 * weakness Fig. 12 exposes on seek-dominated media, and the
 * exclusive turns are what produce the wide latency swings of
 * Figs. 10/11. No memory-management integration: swap IO is
 * throttled like any other (the priority inversion of §3.5).
 */

#ifndef IOCOST_CONTROLLERS_BFQ_HH
#define IOCOST_CONTROLLERS_BFQ_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "sim/simulator.hh"

namespace iocost::controllers {

/** Tunables for the simplified BFQ. */
struct BfqConfig
{
    /** Per-turn service budget in bytes. */
    uint64_t budgetBytes = 512 * 1024;
    /**
     * Idle wait for more IO from the in-service queue before
     * expiring it (BFQ's device idling, which preserves a queue's
     * turn across short think times).
     */
    sim::Time idleWait = 2 * sim::kMsec;
    /**
     * Requests injected from other queues while idling on the
     * in-service queue (BFQ's injection mechanism, which is what
     * keeps it work-conserving across think times).
     */
    unsigned injectionDepth = 4;
};

/**
 * Simplified BFQ controller.
 */
class Bfq : public blk::IoController
{
  public:
    explicit Bfq(BfqConfig cfg = {})
        : cfg_(cfg)
    {}

    blk::ControllerCaps
    caps() const override
    {
        return blk::ControllerCaps{
            .name = "bfq",
            .lowOverhead = false,
            .workConserving = true,
            .memoryManagementAware = false,
            .proportionalFairness = true,
            .cgroupControl = true,
        };
    }

    sim::Time issueCpuCost() const override { return 6000; }

    void attach(blk::BlockLayer &layer) override;
    void onSubmit(blk::BioPtr bio) override;
    void onComplete(const blk::Bio &bio,
                    const blk::CompletionInfo &info) override;

    /** Currently in-service cgroup, or kNone. */
    cgroup::CgroupId inService() const { return inService_; }

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    struct Queue
    {
        std::deque<blk::BioPtr> bios;
        /** Weighted virtual finish time (bytes / weight). */
        double vfinish = 0.0;
        bool ever = false;
    };

    Queue &queue(cgroup::CgroupId cg);
    bool deviceHasRoom() const;
    void selectNext();
    void expire();
    void pump();
    void inject();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.template size<uint32_t>(self.queues_);
        for (auto &q : self.queues_) {
            blk::stateBios(t, q.bios);
            t.value(q.vfinish);
            t.value(q.ever);
        }
        t.value(self.inService_);
        t.value(self.budgetLeft_);
        t.value(self.inServiceInFlight_);
        t.value(self.injectedInFlight_);
        t.value(self.vtime_);
        self.layer().sim().events().handle(t, self.idleTimer_);
    }

    BfqConfig cfg_;
    std::deque<Queue> queues_;
    cgroup::CgroupId inService_ = cgroup::kNone;
    uint64_t budgetLeft_ = 0;
    uint64_t inServiceInFlight_ = 0;
    unsigned injectedInFlight_ = 0;
    double vtime_ = 0.0;
    sim::EventHandle idleTimer_;
};

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_BFQ_HH
