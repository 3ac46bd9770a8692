/**
 * @file
 * The IOCost IO controller (paper §3).
 *
 * Control is split into two paths:
 *
 *  - the **issue path** runs synchronously per bio: compute the
 *    absolute cost from the device model, divide by the issuing
 *    cgroup's cached hierarchical weight to get the relative cost,
 *    and compare against the budget implied by how far the local
 *    vtime trails the global vtime. Bios that fit are dispatched
 *    immediately; the rest wait on a per-cgroup queue with a timer
 *    armed for when the budget will suffice.
 *
 *  - the **planning path** runs once per period: it deactivates idle
 *    cgroups, adjusts the global vrate from the device feedback
 *    signals (completion-latency targets and request depletion), and
 *    runs the budget-donation algorithm so under-consuming cgroups
 *    lend their share to the rest.
 *
 * Swap and filesystem-metadata bios are never throttled
 * synchronously; their cost becomes per-cgroup *debt* repaid from
 * future budget, with a return-to-userspace delay hook for cgroups
 * that generate "free" IO only (§3.5).
 */

#ifndef IOCOST_CORE_IOCOST_HH
#define IOCOST_CORE_IOCOST_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "blk/bio_state.hh"
#include "blk/block_layer.hh"
#include "blk/io_controller.hh"
#include "core/cost_model.hh"
#include "core/donation.hh"
#include "core/qos.hh"
#include "sim/fifo_ring.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"
#include "stat/time_series.hh"

namespace iocost::host {
class FusedObserver;
}

namespace iocost::core {

/**
 * How swap/metadata IO is charged — the production debt mechanism
 * plus the two deliberately broken variants evaluated in Fig. 15.
 */
enum class DebtMode
{
    /** §3.5: issue immediately, charge debt to the owning cgroup. */
    Production,
    /** Charge swap IO to the root: never throttled at all. */
    RootCharge,
    /** Throttle swap IO like normal IO: priority inversion. */
    Inversion,
};

/**
 * Custom cost program (the paper's "arbitrary eBPF program" hook,
 * §3.2): receives the bio and the sequentiality classification and
 * returns the absolute cost in device-occupancy nanoseconds. When
 * set, it replaces the built-in linear model on the issue path.
 */
using CostProgram =
    std::function<sim::Time(const blk::Bio &, bool sequential)>;

/** Static configuration for one IoCost instance. */
struct IoCostConfig
{
    CostModel model;
    QosParams qos;
    bool donationEnabled = true;
    DebtMode debtMode = DebtMode::Production;
    /** Optional programmable cost model overriding `model`. */
    CostProgram costProgram;
    /**
     * When set, attach() arms no planning timer: an external driver
     * (the sweep runner's per-period planning group) calls
     * runPlanning() itself, batching the planner math of many
     * instances back to back over contiguous state.
     */
    bool externalPlanning = false;
};

/**
 * The IOCost controller.
 */
class IoCost : public blk::IoController
{
  public:
    explicit IoCost(IoCostConfig config);
    ~IoCost() override;

    blk::ControllerCaps caps() const override;
    void attach(blk::BlockLayer &layer) override;
    void onSubmit(blk::BioPtr bio) override;
    void onComplete(const blk::Bio &bio,
                    const blk::CompletionInfo &info) override;
    void onError(const blk::Bio &bio,
                 const blk::CompletionInfo &info) override;
    sim::Time userspaceDelay(cgroup::CgroupId cg) override;

    /** Online model update (Fig. 13). Takes effect immediately. */
    void setModel(const CostModel &model) { config_.model = model; }

    /**
     * Install or clear (pass nullptr) a programmable cost model;
     * takes effect for the next submitted bio.
     */
    void
    setCostProgram(CostProgram program)
    {
        config_.costProgram = std::move(program);
    }

    /** The active model. */
    const CostModel &model() const { return config_.model; }

    /** Current vrate multiplier (1.0 = 100%). */
    double vrate() const { return vrate_; }

    /** Global vtime (ns of modeled device occupancy granted). */
    double gvtime() const { return gvtime_; }

    /** Outstanding absolute debt of @p cg (device-occupancy ns). */
    double debt(cgroup::CgroupId cg) const;

    /** Bios currently throttled (waiting) for @p cg. */
    size_t waitingCount(cgroup::CgroupId cg) const;

    /**
     * Cumulative per-cgroup statistics, mirroring the cost.* keys
     * the kernel exposes in io.stat.
     */
    struct IocgStat
    {
        /** Total absolute cost charged (device-occupancy usec). */
        uint64_t usageUs = 0;
        /** Total time bios spent throttled in the waitq (usec). */
        uint64_t waitUs = 0;
        /** Total time the cgroup carried unpaid debt (usec). */
        uint64_t indebtUs = 0;
        /** Total return-to-userspace delay handed out (usec). */
        uint64_t indelayUs = 0;
    };

    /** Read @p cg's cumulative statistics. */
    IocgStat stat(cgroup::CgroupId cg) const;

    /**
     * io.stat-format line for @p cg:
     * "cost.vrate=... cost.usage=... cost.wait=... cost.indebt=...
     *  cost.indelay=...".
     */
    std::string statLine(cgroup::CgroupId cg) const;

    /** vrate samples recorded at every planning pass. */
    const stat::TimeSeries &vrateSeries() const
    {
        return vrateSeries_;
    }

    /** Effective planning period. */
    sim::Time period() const
    {
        return config_.qos.effectivePeriod();
    }

    /** Run one planning pass now (tests drive this directly). */
    void runPlanning();

    /**
     * @name Fused-sweep entry points (host::FusedObserver).
     *
     * The sweep's fused observer runs one K-wide loop per generator
     * bio over lockstep lanes, skipping bio materialization. These
     * hooks let it drive the issue/complete paths with exactly the
     * mutations onSubmit/onComplete would make, in the same order,
     * on the same authoritative Iocg state — so a lane can fall back
     * to the full path (fork) or rejoin the fused loop (refuse) at
     * any bio boundary with byte-identical results.
     * @{
     */

    /** What fusedIssue() decided for one lane. */
    enum class FusedVerdict
    {
        /** Admitted: charged (or debt-charged) and dispatched. */
        Dispatched,
        /**
         * Over budget. No queue mutation was performed — the caller
         * must materialize the bio and hand it to fusedQueue(),
         * because a throttled lane leaves the fused path.
         */
        Queued,
    };

    /**
     * The issue path (onSubmit) for one fused bio: identical
     * mutations up to the admission decision, minus the bio itself.
     * @p abs_cost is the model cost the observer computed once for
     * all lanes sharing this lane's CostModel; sequentiality is
     * likewise classified once upstream (every lane observes the
     * same per-cgroup stream, so lastEnd agrees across lanes — it is
     * still maintained here for the fall-back path).
     */
    FusedVerdict fusedIssue(cgroup::CgroupId cg, uint64_t offset,
                            uint32_t size, bool swap_io, bool meta_io,
                            bool wb_io, double abs_cost);

    /**
     * Complete a Queued verdict: park the now-materialized bio on
     * the waitq exactly as onSubmit's tail would have.
     */
    void fusedQueue(cgroup::CgroupId cg, blk::BioPtr bio);

    /**
     * The completion path (onComplete) for one fused bio. Fused
     * completions are always status-Ok — error outcomes fork to the
     * full path before any completion is delivered.
     */
    void fusedComplete(cgroup::CgroupId cg, blk::Op op,
                       sim::Time device_latency);

    /**
     * True when no cgroup is throttled (empty waitqs, no pending
     * kick timers) — the controller-side condition for re-fusing a
     * diverged lane.
     */
    bool fusedQuiescent() const;

    /**
     * Whether a programmable cost model is installed. Cost programs
     * take a materialized bio, so lanes running one never fuse.
     */
    bool hasCostProgram() const
    {
        return static_cast<bool>(config_.costProgram);
    }
    /** @} */

    /**
     * @name Snapshot support.
     *
     * Everything the issue and planning paths evolve is serialized:
     * the per-iocg table (including throttled bios and kick timers),
     * the global vtime/vrate couple, the QoS latency windows, and
     * the planning timer. The model and QoS parameters ride along
     * too — what-if queries mutate them (setModel), so a restore
     * must roll them back. donorScratch_/donationScratch_ are
     * scratch capacity, not state.
     * @{
     */
    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }
    /** @} */

  private:
    /**
     * The fused observer inlines the common admit-and-charge case of
     * the issue path (plus the outstanding/busy completion tick)
     * against cached Iocg pointers and hierarchical weights, and
     * merges deferred period-histogram state at its flush points.
     * Every mutation it makes is exactly one this class's own paths
     * make; anything beyond the straight-line case falls back to
     * fusedIssue() above.
     */
    friend class iocost::host::FusedObserver;

    /** Per-cgroup controller state ("iocg"). */
    struct Iocg
    {
        /** Local vtime; budget = gvtime - vtime. */
        double vtime = 0.0;
        /** Unpaid absolute cost from swap/metadata IO. */
        double absDebt = 0.0;
        /** Absolute cost charged during the current period. */
        double absUsage = 0.0;
        /** Last submission, for idle detection. */
        sim::Time lastIo = 0;
        /** Whether the cgroup is currently activated. */
        bool active = false;
        /** True if any bio waited during the current period. */
        bool hadWait = false;
        /** End offset of the last IO, for sequential detection. */
        uint64_t lastEnd = UINT64_MAX;
        /** Bios dispatched to the device and not yet completed. */
        unsigned outstanding = 0;
        /** Time the cgroup last transitioned to outstanding > 0. */
        sim::Time busySince = 0;
        /** Accumulated busy (outstanding > 0) time this period. */
        sim::Time busyAccum = 0;
        /** Waitq time accumulated during the current period. */
        sim::Time periodWait = 0;
        /** Throttled bios in submission order. A FifoRing, not a
         *  deque: under sustained throttling the queue cycles
         *  bios continuously and must not churn the allocator. */
        sim::FifoRing<blk::BioPtr> waiting;
        /** Pending wakeup for the waiting queue. */
        sim::EventHandle kick;

        /** @name Cumulative io.stat counters (ns internally).
         *  @{ */
        double statUsage = 0.0;
        sim::Time statWait = 0;
        sim::Time statIndebt = 0;
        sim::Time statIndelay = 0;
        /** Start of the current in-debt episode (debt > 0). */
        sim::Time debtSince = 0;
        /** @} */
    };

    Iocg &iocg(cgroup::CgroupId cg);
    const Iocg *iocgIfPresent(cgroup::CgroupId cg) const;

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.config_.model);
        t.value(self.config_.qos);

        t.value(self.gvtime_);
        t.value(self.vrate_);
        t.value(self.lastGvtimeUpdate_);
        t.value(self.lastPlanning_);
        t.value(self.gvtimeAtPlanning_);
        t.value(self.periodErrors_);
        t.value(self.latReadReady_);
        t.value(self.latWriteReady_);
        t.sub(self.periodReadLat_);
        t.sub(self.periodWriteLat_);
        t.sub(self.vrateSeries_);

        // Size the table to the snapshot: a branch may have grown it
        // (iocg() adds entries on first submission from a new cgroup
        // id) — those entries and their queued bios are destroyed —
        // and a freshly built replica starts empty.
        t.template size<uint32_t>(self.iocgs_);
        for (auto &st : self.iocgs_) {
            t.value(st.vtime);
            t.value(st.absDebt);
            t.value(st.absUsage);
            t.value(st.lastIo);
            t.value(st.active);
            t.value(st.hadWait);
            t.value(st.lastEnd);
            t.value(st.outstanding);
            t.value(st.busySince);
            t.value(st.busyAccum);
            t.value(st.periodWait);
            t.value(st.statUsage);
            t.value(st.statWait);
            t.value(st.statIndebt);
            t.value(st.statIndelay);
            t.value(st.debtSince);
            blk::stateBios(t, st.waiting);
            self.sim_->events().handle(t, st.kick);
        }

        t.optional(self.planningTimer_,
                   "IoCost::loadState: planning timer mismatch");
    }

    /** Advance gvtime to now at the current vrate. */
    void updateGvtime();

    /** Budget cap in gvtime units. */
    double budgetCap() const;

    /** Activate an idle cgroup, granting a fresh initial budget. */
    void activate(cgroup::CgroupId cg, Iocg &st);

    /** Pay outstanding debt from available budget. */
    void payDebt(cgroup::CgroupId cg, Iocg &st);

    /** Try to dispatch waiting bios; re-arm the kick timer. */
    void kickWaiters(cgroup::CgroupId cg);

    /** Dispatch one bio, maintaining busy-time accounting. */
    void dispatchTracked(blk::BioPtr bio, Iocg &st);

    /** Charge and dispatch one bio unconditionally. */
    void chargeAndDispatch(blk::BioPtr bio, Iocg &st,
                           double abs_cost, double hw);

    /** dispatchTracked() minus the dispatch (fused issue path). */
    void fusedDispatchTick(Iocg &st);

    /** Planning-path vrate adjustment from device feedback. */
    void adjustVrate(sim::Time elapsed);

    /** Planning-path donation pass. */
    void planDonation(double avg_vrate, sim::Time elapsed);

    /**
     * Publish the period's records (vrate, QoS latency percentiles,
     * per-cgroup usage/wait/debt/hweight) into the block layer's
     * telemetry bus. Runs just before the period-local accounting is
     * reset, so the records describe the completed period.
     */
    void emitPeriodTelemetry(sim::Time now, sim::Time elapsed,
                             double avg_vrate);

    /**
     * Failed device attempts observed within the current period.
     * An error burst reads as saturation: a device that is dropping
     * requests is not delivering its modeled capacity, so
     * adjustVrate treats it like request depletion (§3.3).
     */
    static constexpr uint64_t kErrorBurstThreshold = 8;

    IoCostConfig config_;
    sim::Simulator *sim_ = nullptr;
    cgroup::CgroupTree *tree_ = nullptr;

    /**
     * Per-cgroup table. Must be a deque (stable storage), never a
     * vector: the issue path holds `Iocg &st` across
     * chargeAndDispatch -> layer().dispatch(), and a dispatch can
     * run completions inline (timeout expiry) whose callbacks may
     * submit from a previously-unseen cgroup id and grow this table
     * — contiguous storage would leave `st` dangling.
     */
    std::deque<Iocg> iocgs_;

    double gvtime_ = 0.0;
    double vrate_ = 1.0;
    sim::Time lastGvtimeUpdate_ = 0;

    sim::Time lastPlanning_ = 0;
    double gvtimeAtPlanning_ = 0.0;

    /** Completion latencies within the current period. */
    stat::Histogram periodReadLat_;
    stat::Histogram periodWriteLat_;
    /** Failed device attempts within the current period. */
    uint64_t periodErrors_ = 0;
    /** Whether the last planning pass consumed each histogram. */
    bool latReadReady_ = false;
    bool latWriteReady_ = false;

    stat::TimeSeries vrateSeries_;

    /**
     * Donor list reused across planning passes (capacity sticks), so
     * the per-period planner math stays allocation-free in steady
     * state — the sweep bench gates this under --check-allocs.
     */
    std::vector<DonorTarget> donorScratch_;
    DonationScratch donationScratch_;

    std::optional<sim::PeriodicTimer> planningTimer_;
};

} // namespace iocost::core

#endif // IOCOST_CORE_IOCOST_HH
