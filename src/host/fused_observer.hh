/**
 * @file
 * FusedObserver — the K-wide fast path for lockstep sweep lanes.
 *
 * In a coherent sweep (QoS/knob grids) the K lanes agree on almost
 * every decision: every lane admits the same bio at the same
 * instant, dispatches it to a device with free slots, and completes
 * it when the shared ServiceLog records the outcome. The full-lane
 * path still pays K times for bio materialization, controller
 * virtual dispatch, per-lane pending-table hashing, and per-lane
 * stats plumbing. The fused observer collapses all of that into one
 * K-wide loop over the lanes' authoritative state:
 *
 *  - the sequentiality classification and each distinct CostModel's
 *    cost are computed ONCE per generator bio (lanes sharing a model
 *    form a cost group);
 *  - per lane, the common admit-and-charge case of the iocost issue
 *    path is inlined here (IoCost befriends the observer), against a
 *    per-lane arena of cached Iocg pointers and hierarchical
 *    weights — one straight-line pass over a handful of cache lines
 *    instead of a cross-TU call chain with deque and weight-tree
 *    lookups per lane. Anything off the straight line (activation,
 *    debt, swap/meta, over-budget) falls back to IoCost::fusedIssue,
 *    whose leading mutations are idempotent re-runs of the inlined
 *    ones; the device slot is taken bio-lessly
 *    (ReplayDevice::fusedAcquire);
 *  - the in-flight request is tracked once, in an observer-owned
 *    record keyed by bio id with a member-lane bitmask and the id's
 *    log handle, instead of K parked bios in K pending tables;
 *  - when the log records the Ok outcome, one pooled simulator
 *    event delivers all member lanes' completions, and the member
 *    lanes' holds on the log entry are released at once (the
 *    completion needs only the record);
 *  - accounting that is an order-independent integer monoid — the
 *    layers' per-cgroup count/byte/histogram stats, the controllers'
 *    period latency histograms, the submitted/completed/nextBioId
 *    counters — is recorded ONCE into shared scratch and merged into
 *    every fused lane at flush points (planning boundaries, forks,
 *    stat reads). Histograms are all-integer, so merge order cannot
 *    change a single bit. Control state (vtime, gvtime, outstanding,
 *    busy time, device in-flight) is never deferred: it stays on the
 *    real objects, mutated at the real instants, so real-path
 *    traffic (retries of forked records, diverged lanes) interleaves
 *    exactly as on the full path.
 *
 * A lane leaves the fused path (forks) the moment its state
 * actually diverges: its controller queues the bio (hard throttle /
 * debt), or its device is saturated / has parked bios. Forking
 * materializes the lane's fused in-flight records as real parked
 * bios, so the existing full-lane machinery takes over mid-stream
 * with byte-identical state. Error and expiry outcomes fork only
 * the affected record (all lanes handle retries on the real path),
 * not the whole lane. A diverged lane re-fuses at a planning
 * boundary once it is quiescent again: empty waitqs, no kick
 * timers, empty dispatch FIFO.
 *
 * Correctness invariant: every fused mutation is exactly the
 * mutation the full path would make, in the same order, at the same
 * simulated instant — so fused vs full-lane results are
 * byte-identical and fork/refuse timing is purely a performance
 * decision. The observer is only built when it can hold that
 * invariant: iocost lanes, K <= 64, no detail telemetry (per-
 * completion records would need per-lane emission order), no
 * cost programs (they take a materialized bio).
 */

#ifndef IOCOST_HOST_FUSED_OBSERVER_HH
#define IOCOST_HOST_FUSED_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "blk/bio.hh"
#include "blk/block_layer.hh"
#include "blk/service_log.hh"
#include "core/iocost.hh"
#include "device/replay_device.hh"
#include "sim/id_table.hh"
#include "sim/simulator.hh"
#include "sim/slot_pool.hh"

namespace iocost::host {

/**
 * One fused charge/complete loop over a sweep's shadow lanes.
 * Owned and driven by the SweepRunner.
 */
class FusedObserver
{
  public:
    /**
     * @param sim Shared simulation context.
     * @param generator_layer The generator's block layer (telemetry
     *        host for the fused/diverged period counts).
     * @param log The shared outcome log.
     * @param queue_depth The generator device's queue depth (sizes
     *        the in-flight record table).
     */
    FusedObserver(sim::Simulator &sim,
                  blk::BlockLayer &generator_layer,
                  blk::ServiceLog &log, uint32_t queue_depth);

    FusedObserver(const FusedObserver &) = delete;
    FusedObserver &operator=(const FusedObserver &) = delete;

    /** Register one shadow lane (construction order = lane index). */
    void addLane(blk::BlockLayer &layer, device::ReplayDevice &dev,
                 core::IoCost *ioc);

    /** Build cost groups and fuse every eligible lane (call once,
     *  after all addLane calls). */
    void start();

    /**
     * The generator submitted @p bio: run the K-wide loop. Fused
     * lanes are charged/dispatched bio-lessly; diverged (or never
     * fusable) lanes get a real clone through the full path.
     */
    void onGeneratorBio(const blk::Bio &bio);

    /**
     * ServiceLog append/close for @p id, whose log slot is
     * @p handle. Consumes the fused record, if any: an Ok outcome
     * schedules the batched fused completion and releases one log
     * hold per member lane; an error (or closed-with-no-entry)
     * outcome forks the record into real parked bios so the
     * caller's per-lane resolve pass handles retry/clamp exactly
     * like the full path.
     */
    void onLogEvent(uint32_t handle, uint64_t id);

    /**
     * A planning-group boundary ran: re-validate cost groups (model
     * updates take effect here, next period), re-fuse quiescent
     * diverged lanes, refresh the cached per-lane weights/budget cap
     * (planning may have changed vrate and inuse), and publish the
     * period's fused/diverged lane counts through the generator's
     * telemetry. The caller must flushDeferred() BEFORE running the
     * planning passes — planning consumes the period histograms.
     */
    void onPlanBoundary();

    /**
     * Land the deferred accounting window (per-cgroup stats, period
     * latency histograms, submitted/completed/nextBioId) on every
     * fused lane and clear the scratch. Must run before anything
     * reads a fused lane's stats or before lane membership changes;
     * the SweepRunner calls it at planning boundaries and stat
     * reads, diverge() calls it on forks. Idempotent and cheap when
     * the window is empty.
     */
    void flushDeferred();

    /** Lane-submissions taken on the fused path so far. */
    uint64_t fusedLaneBios() const { return fusedLaneBios_; }

    /** Total lane-submissions observed (K per generator bio). */
    uint64_t totalLaneBios() const { return totalLaneBios_; }

    /** Fused-path share of all lane-submissions, 0..1. */
    double
    fusedFraction() const
    {
        return totalLaneBios_ == 0
                   ? 0.0
                   : static_cast<double>(fusedLaneBios_) /
                         static_cast<double>(totalLaneBios_);
    }

    /** Lanes currently on the fused path. */
    size_t
    fusedLaneCount() const
    {
        size_t n = 0;
        for (const LaneRef &ln : lanes_)
            n += ln.fused ? 1 : 0;
        return n;
    }

  private:
    /** IoCost's private per-cgroup state (we are a friend). */
    using Iocg = core::IoCost::Iocg;

    /**
     * Cached per-(lane, cgroup) hot state: the stable Iocg pointer
     * (iocgs_ is a deque) and the hierarchical inuse weight. The
     * weight is refreshed whenever it can change under a fused lane:
     * planning boundaries (donation) and slow-path issues
     * (activation, rescind).
     */
    struct LaneCg
    {
        Iocg *st = nullptr;
        double hw = 0.0;
    };

    /** One observed lane. */
    struct LaneRef
    {
        blk::BlockLayer *layer;
        device::ReplayDevice *dev;
        core::IoCost *ioc; // nullptr = non-iocost mechanism
        /** Static eligibility (iocost, no cost program). */
        bool fusable = false;
        /** Currently on the fused fast path. */
        bool fused = false;
        /** Index into groups_ (valid while fusable). */
        uint32_t costGroup = 0;
        /** Cached budget cap (refreshed at planning boundaries —
         *  vrate only changes there). */
        double budgetCap = 0.0;
        /** Per-cgroup cached pointers/weights, indexed by id. */
        std::vector<LaneCg> cgs;
    };

    /** Lanes sharing one CostModel: one cost() call serves all. */
    struct CostGroup
    {
        core::IoCost *rep;
        double cost = 0.0;
    };

    /**
     * One fused in-flight request: everything needed to deliver the
     * member lanes' completions — or to materialize real bios on a
     * fork — without having stored K bios.
     */
    struct Record
    {
        /** Member-lane bitmask (the K <= 64 gate). */
        uint64_t lanes = 0;
        uint64_t offset = 0;
        uint32_t size = 0;
        blk::Op op = blk::Op::Read;
        bool swap = false;
        bool meta = false;
        bool wb = false;
        cgroup::CgroupId cg = 0;
        /** The id's ServiceLog handle. */
        uint32_t logHandle = 0;
        /** Submit == dispatch instant (fused bios never park). */
        sim::Time time = 0;
    };

    /** Pooled pending fused completion. */
    struct Fire
    {
        Record rec;
        sim::Time duration = 0;
        uint32_t nextFree = 0;
    };

    /** Fork lane @p k off the fused path, materializing its fused
     *  in-flight records as real parked bios (flushes the deferred
     *  window into the departing lane first). */
    void diverge(size_t k);

    /** Cached per-(lane, cgroup) slot, populated on first use. */
    LaneCg &laneCg(LaneRef &ln, cgroup::CgroupId cg);

    /** Re-read @p ln's cached weights and budget cap. */
    void refreshLaneCaches(LaneRef &ln);

    /**
     * The non-straight-line issue path for lane @p k: delegate to
     * IoCost::fusedIssue (activation / debt / swap-meta / over-budget
     * handling), refresh the lane caches it may have invalidated,
     * and fork + queue on a Queued verdict. Returns true when the
     * bio was dispatched (caller runs the device tail), false when
     * the lane forked and queued it.
     */
    bool slowIssue(size_t k, const blk::Bio &bio, double abs_cost,
                   sim::Time now);

    /** A real bio carrying the fields the full path would have set
     *  by this point (submit, or submit + issue). */
    blk::BioPtr materialize(const blk::Bio &src, uint64_t id,
                            sim::Time submit_time,
                            double controller_scratch) const;

    /** Same, from a fused in-flight record (already dispatched). */
    blk::BioPtr materializeRecord(uint64_t id,
                                  const Record &rec) const;

    void fireFused(uint32_t slot);
    void rebuildGroups();

    sim::Simulator &sim_;
    blk::BlockLayer &generatorLayer_;
    blk::ServiceLog &log_;

    std::vector<LaneRef> lanes_;
    std::vector<CostGroup> groups_;

    /** Shared per-cgroup lastEnd for the one-shot sequentiality
     *  classification. Provably equal to every lane's own lastEnd:
     *  all lanes observe the identical per-cgroup stream. */
    std::vector<uint64_t> lastEnd_;

    /** Fused in-flight records by id; twice the queue depth, since
     *  a record lives inside a device-slot lifetime. */
    sim::IdTable<Record> records_;

    sim::SlotPool<Fire, &Fire::nextFree> fires_;

    /** Bitmask of currently-fused lanes (mirrors LaneRef::fused).
     *  A completion window can be scratch-deferred only when the
     *  record's member mask equals this mask — records issued before
     *  a refusion deliver to fewer lanes than are now fused. */
    uint64_t fusedMask_ = 0;

    /**
     * @name Deferred accounting window (order-independent monoids).
     *
     * Everything here is identical for every fused lane, recorded
     * once and merged at flush points. All-integer state only:
     * histogram merges and counter adds are associative and
     * commutative, so the merge instant cannot change results.
     * @{
     */
    /** Per-cgroup Ok-completion stats (errors never deferred). */
    std::vector<blk::CgroupIoStats> statScratch_;
    /** Controller period-latency windows (IoCost::periodReadLat_). */
    stat::Histogram periodReadScratch_;
    stat::Histogram periodWriteScratch_;
    /** Bios accepted / completed while fused this window. */
    uint64_t submitScratch_ = 0;
    uint64_t completeScratch_ = 0;
    /** Generator's next bio id (lockstep assertion at flush). */
    uint64_t expectedNextId_ = 0;
    bool scratchDirty_ = false;
    /** @} */

    uint64_t fusedLaneBios_ = 0;
    uint64_t totalLaneBios_ = 0;
};

} // namespace iocost::host

#endif // IOCOST_HOST_FUSED_OBSERVER_HH
