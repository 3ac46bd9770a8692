/**
 * @file
 * blk-throttle: static per-cgroup IOPS / bytes-per-second limits.
 *
 * Each cgroup may be capped on four independent dimensions (read
 * IOPS, write IOPS, read B/s, write B/s), enforced with token
 * buckets. Hard limits are trivially isolating but not work
 * conserving — a capped cgroup can never use idle device capacity —
 * and, as the paper argues, picking per-application limits across
 * heterogeneous fleets is intractable.
 */

#ifndef IOCOST_CONTROLLERS_BLK_THROTTLE_HH
#define IOCOST_CONTROLLERS_BLK_THROTTLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "sim/simulator.hh"

namespace iocost::controllers {

/** Per-cgroup limits; 0 means unlimited on that dimension. */
struct ThrottleLimits
{
    double riops = 0;
    double wiops = 0;
    double rbps = 0;
    double wbps = 0;
};

/** Construction-time configuration for blk-throttle. */
struct BlkThrottleConfig
{
    /**
     * Limits applied to every cgroup that has no explicit
     * setLimits() call — what a config file can express without
     * knowing cgroup ids. Default: unlimited.
     */
    ThrottleLimits defaultLimits;
};

/**
 * blk-throttle controller.
 */
class BlkThrottle : public blk::IoController
{
  public:
    explicit BlkThrottle(BlkThrottleConfig cfg = {})
        : cfg_(cfg)
    {}

    blk::ControllerCaps
    caps() const override
    {
        return blk::ControllerCaps{
            .name = "blk-throttle",
            .lowOverhead = true,
            .workConserving = false,
            .memoryManagementAware = false,
            .proportionalFairness = false,
            .cgroupControl = true,
        };
    }

    sim::Time issueCpuCost() const override { return 500; }

    /** Configure limits for one cgroup. */
    void setLimits(cgroup::CgroupId cg, ThrottleLimits limits);

    void onSubmit(blk::BioPtr bio) override;

    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }

  private:
    struct State
    {
        ThrottleLimits limits;
        /**
         * Virtual next-admission times per dimension: a request is
         * admitted at the max across its dimensions, and pushes each
         * forward by its cost (classic virtual-scheduling token
         * bucket).
         */
        sim::Time nextRead = 0;
        sim::Time nextWrite = 0;
        sim::Time nextReadBytes = 0;
        sim::Time nextWriteBytes = 0;
        std::deque<blk::BioPtr> waiting;
        sim::EventHandle kick;
    };

    State &state(cgroup::CgroupId cg);
    /** Admission time for the front of the queue / a new bio. */
    sim::Time admissionTime(State &st, const blk::Bio &bio) const;
    void charge(State &st, const blk::Bio &bio);
    void kick(cgroup::CgroupId cg);

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.template size<uint32_t>(self.states_);
        for (auto &st : self.states_) {
            t.value(st.limits);
            t.value(st.nextRead);
            t.value(st.nextWrite);
            t.value(st.nextReadBytes);
            t.value(st.nextWriteBytes);
            blk::stateBios(t, st.waiting);
            self.layer().sim().events().handle(t, st.kick);
        }
    }

    BlkThrottleConfig cfg_;
    std::deque<State> states_;
};

} // namespace iocost::controllers

#endif // IOCOST_CONTROLLERS_BLK_THROTTLE_HH
