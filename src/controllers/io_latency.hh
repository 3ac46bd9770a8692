/**
 * @file
 * IOLatency: latency-target based protection (the authors' first-
 * generation controller, §2.2).
 *
 * Each protected cgroup declares a completion-latency target. When a
 * cgroup with a tight target misses it, every cgroup with a looser
 * target has its queue depth cut; depths recover gradually while all
 * targets are met. This provides strict prioritization — but no
 * proportional control among equals, which is the paper's core
 * criticism. Reclaim (swap) IO bypasses the depth limits, matching
 * the kernel implementation's memory-management awareness.
 */

#ifndef IOCOST_CONTROLLERS_IO_LATENCY_HH
#define IOCOST_CONTROLLERS_IO_LATENCY_HH

#include <deque>
#include <optional>
#include <vector>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"

namespace iocost::controllers {

/** Tunables for IOLatency. */
struct IoLatencyConfig
{
    /** Evaluation window. */
    sim::Time window = 100 * sim::kMsec;
    /** Depth floor for punished cgroups. */
    unsigned minDepth = 1;
    /** Depth ceiling (effectively unlimited). */
    unsigned maxDepth = 1u << 16;
};

/**
 * IOLatency controller.
 */
class IoLatency : public blk::IoController
{
  public:
    explicit IoLatency(IoLatencyConfig cfg = {})
        : cfg_(cfg)
    {}

    blk::ControllerCaps
    caps() const override
    {
        return blk::ControllerCaps{
            .name = "iolatency",
            .lowOverhead = true,
            // Work conserving in principle, but configurations that
            // are both isolating and work conserving are hard to
            // find (§2.2) — the caps table marks it "~" which we
            // render as true with a footnote in the bench.
            .workConserving = true,
            .memoryManagementAware = true,
            .proportionalFairness = false,
            .cgroupControl = true,
        };
    }

    sim::Time issueCpuCost() const override { return 400; }

    /** Set the completion-latency target for @p cg (0 = none). */
    void setTarget(cgroup::CgroupId cg, sim::Time target);

    void attach(blk::BlockLayer &layer) override;
    void onSubmit(blk::BioPtr bio) override;
    void onComplete(const blk::Bio &bio,
                    const blk::CompletionInfo &info) override;

    /**
     * Return-to-userspace throttle for heavily punished cgroups
     * (the kernel's blkcg_schedule_throttle path): swap IO bypasses
     * the depth limit to avoid synchronous priority inversions, so
     * offenders generating reclaim IO are paced here instead.
     */
    sim::Time userspaceDelay(cgroup::CgroupId cg) override;

    /** Current depth limit of @p cg (for tests). */
    unsigned depthLimit(cgroup::CgroupId cg);

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    struct State
    {
        sim::Time target = 0;
        unsigned depth = 1u << 16;
        unsigned inFlight = 0;
        stat::Histogram windowLat;
        std::deque<blk::BioPtr> waiting;
    };

    State &state(cgroup::CgroupId cg);
    void pump(cgroup::CgroupId cg);
    void evaluate();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.template size<uint32_t>(self.states_);
        for (auto &st : self.states_) {
            t.value(st.target);
            t.value(st.depth);
            t.value(st.inFlight);
            t.sub(st.windowLat);
            blk::stateBios(t, st.waiting);
        }
        t.optional(self.timer_, "IoLatency::loadState: timer mismatch");
    }

    IoLatencyConfig cfg_;
    std::deque<State> states_;
    std::optional<sim::PeriodicTimer> timer_;
};

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_IO_LATENCY_HH
