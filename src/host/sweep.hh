/**
 * @file
 * Sweep execution: one workload + device stream, K controller lanes.
 *
 * A sweep evaluates K controller configurations against *identical*
 * submissions and device outcomes (common random numbers). One
 * generator host runs the workload and the real device model; a
 * pass-through tap on its block layer clones every submitted bio
 * into K shadow lanes. Each lane is a full controller stack — its
 * own cgroup tree, block layer, and controller — backed by a
 * ReplayDevice that completes each (bio id, attempt) with the
 * duration and fault status the generator's device recorded in the
 * shared ServiceLog. The log keeps an id only while the generator or
 * some lane still needs it, so sweep memory follows the requests in
 * flight (plus any throttled lane's backlog), not the run length;
 * the generator bio and its lane copies carry the id's log handle.
 *
 * Shared vs per-lane state:
 *  - shared: the workload arrival stream, the device-model service
 *    times and fault draws (one RNG stream, drawn once);
 *  - per-lane: throttling decisions, queueing timing, vrate state,
 *    per-cgroup stats, telemetry. A lane's bio reaches its device
 *    when *its* controller releases it, so queue waits diverge while
 *    the underlying service durations stay common.
 *
 * K = 1 at the top level is a degenerate sweep and delegates to a
 * plain Host verbatim (same controller, merging on, no log): the
 * single-config path has zero observation overhead and its output is
 * byte-identical to a hand-built Host. Inside a partitioned K >= 2
 * sweep every group uses shadow semantics — including singleton
 * groups — so per-config outputs never depend on how configs were
 * split across threads.
 *
 * Back-merging is disabled on every sweep layer: a merge rewrites
 * bio identity (the absorbed bio never reaches the device), which
 * would break the id-keyed outcome replay.
 */

#ifndef IOCOST_HOST_SWEEP_HH
#define IOCOST_HOST_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "blk/block_layer.hh"
#include "blk/service_log.hh"
#include "controllers/factory.hh"
#include "core/iocost.hh"
#include "device/replay_device.hh"
#include "host/fused_observer.hh"
#include "host/host.hh"
#include "sim/simulator.hh"
#include "sim/slot_pool.hh"

namespace iocost::host {

class TapController;

/** Sweep assembly options. */
struct SweepOptions
{
    /**
     * One controller spec line per lane (parseControllerSpec
     * grammar). Construction throws std::invalid_argument on a
     * malformed or empty list.
     */
    std::vector<std::string> specs;

    /**
     * Device factory for the generator (and, via runSweep, for every
     * group's generator — it must be safe to call from multiple
     * threads, i.e. capture no mutable shared state).
     */
    std::function<std::unique_ptr<blk::BlockDevice>(sim::Simulator &)>
        makeDevice;

    /** Fault spec shared by the stream (FaultPlan::parse grammar). */
    std::string faults;

    /** Submission-path CPU model on the workload-facing layer. */
    bool submissionCpu = false;

    /** Telemetry sink for the generator stack; in plain K = 1 mode,
     *  for the single host. Lanes publish no records. */
    stat::TelemetrySink *generatorSink = nullptr;

    /** Ignored: the ServiceLog holds only live ids and sizes itself.
     *  Kept so existing callers compile. */
    size_t reserveBios = 0;

    /**
     * Applied to each parsed spec before the controller is built
     * (e.g. injecting the device-profile cost model into iocost
     * configs that carry no model keys). Keyed on the spec line, not
     * a lane index, so it is partition-invariant by construction;
     * must be thread-safe under runSweep.
     */
    std::function<void(const std::string &line,
                       controllers::ControllerSpec &spec)>
        tweakSpec;

    /**
     * Use shadow semantics even for a single config. runSweep sets
     * this on every group of a K >= 2 sweep so singleton groups match
     * multi-lane groups bit for bit.
     */
    bool forceShadow = false;

    /**
     * Run lockstep iocost lanes through the FusedObserver fast path
     * (one K-wide charge loop, bio-less in-flight tracking,
     * fork-on-divergence). Results are byte-identical either way —
     * this exists so benches and tests can compare against the
     * full-lane path. Ignored (off) when lanes exceed 64 or no lane
     * runs iocost.
     */
    bool fusedObserver = true;
};

/**
 * One generator plus K controller lanes over a shared Simulator.
 *
 * Workloads are built against layer() (the generator); cgroups must
 * be created through addWorkload()/addSystemService() so every lane's
 * tree replicates the generator's ids. Results are read from
 * laneLayer(k) / laneIocost(k) after the caller runs the simulator.
 */
class SweepRunner
{
  public:
    SweepRunner(sim::Simulator &sim, SweepOptions opts);

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Number of lanes (== specs.size()). */
    size_t lanes() const { return plain_ ? 1 : lanes_.size(); }

    /** The spec line lane @p k runs. */
    const std::string &spec(size_t k) const { return opts_.specs[k]; }

    /** True when running shadow lanes (false = plain delegation). */
    bool shadow() const { return !plain_; }

    /** The workload-facing block layer (the generator's). */
    blk::BlockLayer &layer() { return generator_->layer(); }

    /** The generator host (device, cgroup ids, fault injector). */
    Host &generator() { return *generator_; }

    /** The shared outcome log (shadow mode; empty in plain mode).
     *  live() == 0 once every lane has drained. */
    const blk::ServiceLog &serviceLog() const { return log_; }

    /** Create a container cgroup in every tree; returns the id
     *  (identical across generator and lanes by construction). */
    cgroup::CgroupId addWorkload(const std::string &name,
                                 uint32_t weight = 100);

    /** Create a service cgroup in every tree. */
    cgroup::CgroupId addSystemService(const std::string &name,
                                      uint32_t weight = 100);

    /** Lane @p k's block layer (per-cgroup stats, counters). Reads
     *  are a flush point for the fused path's deferred accounting. */
    blk::BlockLayer &
    laneLayer(size_t k)
    {
        if (fused_)
            fused_->flushDeferred();
        return plain_ ? generator_->layer() : lanes_[k].layer;
    }

    /** Lane @p k's IoCost, or nullptr for other mechanisms. Reads
     *  are a flush point for the fused path's deferred accounting. */
    core::IoCost *
    laneIocost(size_t k)
    {
        if (fused_)
            fused_->flushDeferred();
        return plain_ ? generator_->iocost() : lanes_[k].iocost;
    }

    /** Reset generator and lane per-cgroup stats (warmup cut). */
    void resetStats();

    /** The fused fast-path observer, or nullptr when disabled
     *  (plain mode, over 64 lanes, no iocost lanes, opt-out). */
    const FusedObserver *
    fusedObserver() const
    {
        return fused_.get();
    }

    /** Workload cgroups created so far, in creation order. Lane ids
     *  equal generator ids, so one list serves every lane. */
    const std::vector<std::pair<std::string, cgroup::CgroupId>> &
    workloadCgroups() const
    {
        return workloadCgroups_;
    }

  private:
    friend class TapController;

    /** One shadow controller stack. Non-movable (the layer holds
     *  references into the struct), hence the deque below. */
    struct Lane
    {
        std::string specLine;
        cgroup::CgroupTree tree;
        device::ReplayDevice device;
        blk::BlockLayer layer;
        core::IoCost *iocost = nullptr;
        cgroup::CgroupId system;
        cgroup::CgroupId hostCritical;
        cgroup::CgroupId workload;

        Lane(sim::Simulator &sim, const blk::ServiceLog &log,
             uint32_t depth, std::string name)
            : device(sim, log, depth, std::move(name)),
              layer(sim, device, tree),
              system(tree.create(cgroup::kRoot, "system.slice",
                                 kSystemWeight)),
              hostCritical(tree.create(cgroup::kRoot,
                                       "hostcritical.slice",
                                       kHostCriticalWeight)),
              workload(tree.create(cgroup::kRoot, "workload.slice",
                                   kWorkloadWeight))
        {}
    };

    /**
     * Lanes sharing one planning period, driven by one timer that
     * runs their planning passes back to back — the K-way planner
     * math batches over a contiguous member array instead of K
     * interleaved timers, and each pass is allocation-free in steady
     * state (donor scratch lives in the instance).
     */
    struct PlanGroup
    {
        sim::Time period = 0;
        std::vector<core::IoCost *> members;
        std::optional<sim::PeriodicTimer> timer;
    };

    /**
     * One scheduled completion shared by every lane whose parked bio
     * resolved to the same service duration (in lockstep that is all
     * of them): K lane completions cost one simulator event instead
     * of K. Slots are pooled and keep their item buffers, so the
     * steady-state replay loop never touches the allocator.
     */
    struct ReplayBatch
    {
        std::vector<device::ReplayDevice::Resolved> items;
        sim::Time duration = 0;
        uint32_t nextFree = 0;
    };

    /** Open the log entry for one generator submission (its handle
     *  goes on the bio) and clone it into every lane (id lockstep). */
    void cloneToLanes(blk::Bio &bio);
    /** The generator delivered @p bio's final completion. */
    void onGeneratorFinal(const blk::Bio &bio);
    /** ServiceLog append/close: resolve parked bios in every lane
     *  and schedule the batched completions. */
    void onLogEvent(uint32_t handle, uint64_t id);
    void fireBatch(uint32_t slot);

    sim::Simulator &sim_;
    SweepOptions opts_;
    bool plain_ = false;
    blk::ServiceLog log_;
    std::unique_ptr<Host> generator_;
    std::deque<Lane> lanes_;
    std::deque<PlanGroup> planGroups_;
    std::vector<std::pair<std::string, cgroup::CgroupId>>
        workloadCgroups_;
    std::vector<device::ReplayDevice::Resolved> resolveScratch_;
    sim::SlotPool<ReplayBatch, &ReplayBatch::nextFree> batches_;
    std::unique_ptr<FusedObserver> fused_;
};

/**
 * The worker pool behind runSweep, runPaired and the fleet's shard
 * loop: runs task(i) for every i in [0, count) on up to @p jobs
 * workers (0 = 1), stealing indices from a shared atomic counter.
 * The calling thread is one of the workers, so at most jobs - 1
 * threads are spawned. An exception from task(i) is captured per
 * index and the others still run; once every worker has joined, the
 * lowest failing index's exception is rethrown, so failures do not
 * depend on the worker count or on scheduling. If a thread fails to
 * start, the workers already running are joined and the
 * std::system_error propagates.
 */
template <typename Task>
void
runIndexed(size_t count, unsigned jobs, Task task)
{
    if (count == 0)
        return;
    const size_t workers = std::min<size_t>(
        jobs == 0 ? 1 : jobs, count);

    std::vector<std::exception_ptr> errors(count);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                task(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    try {
        for (size_t w = 1; w < workers; ++w)
            helpers.emplace_back(worker);
    } catch (...) {
        for (std::thread &t : helpers)
            t.join();
        throw;
    }
    worker();
    for (std::thread &t : helpers)
        t.join();
    for (size_t i = 0; i < count; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

/**
 * Partitioned multi-config execution.
 *
 * Splits @p base.specs into up to @p jobs contiguous groups, runs
 * the groups concurrently (runIndexed, one worker per group), each
 * with its own Simulator(@p seed) and SweepRunner, and returns one
 * collect() result per config in spec order. Because every group
 * re-runs the identical generator stream (same seed, same body,
 * fixed pass-through generator), per-config results are
 * byte-identical regardless of jobs or config order.
 *
 * @param body   body(sim, runner): build cgroups/workloads against
 *               the runner and run the simulator. Must behave
 *               identically for every group (it only sees the
 *               generator side).
 * @param collect collect(runner, lane, config): read lane results;
 *               `lane` indexes within the group, `config` globally.
 */
template <typename Body, typename Collect>
auto
runSweep(const SweepOptions &base, uint64_t seed, unsigned jobs,
         Body body, Collect collect)
    -> std::vector<std::invoke_result_t<Collect &, SweepRunner &,
                                        size_t, size_t>>
{
    using Result = std::invoke_result_t<Collect &, SweepRunner &,
                                        size_t, size_t>;
    const size_t total = base.specs.size();
    if (total == 0)
        return {};
    const size_t groups =
        std::min<size_t>(jobs == 0 ? 1 : jobs, total);

    std::vector<std::optional<Result>> slots(total);
    runIndexed(groups, jobs, [&](size_t g) {
        const size_t lo = total * g / groups;
        const size_t hi = total * (g + 1) / groups;
        SweepOptions opts = base;
        opts.specs.assign(base.specs.begin() +
                              static_cast<std::ptrdiff_t>(lo),
                          base.specs.begin() +
                              static_cast<std::ptrdiff_t>(hi));
        // Singleton groups of a multi-config sweep keep shadow
        // semantics: partitioning must not change results.
        opts.forceShadow = base.forceShadow || total > 1;
        sim::Simulator sim(seed);
        SweepRunner runner(sim, std::move(opts));
        body(sim, runner);
        for (size_t k = 0; k < hi - lo; ++k)
            slots[lo + k].emplace(collect(runner, k, lo + k));
    });

    std::vector<Result> out;
    out.reserve(total);
    for (std::optional<Result> &r : slots)
        out.push_back(std::move(*r));
    return out;
}

/**
 * Paired-CRN execution for closed-loop scenarios.
 *
 * Some sweeps cannot run as shadow lanes: when the workload reacts
 * to the controller's decisions (memory-management agents, latency
 * servers with feedback), the submission stream itself diverges per
 * config and there is no shared stream to tap. The common-random-
 * numbers discipline still applies — every config must be evaluated
 * with the *same seeds* so config deltas cancel the workload noise —
 * but each config needs its own full run.
 *
 * runPaired runs run(config) for each config index on runIndexed's
 * pool of up to @p jobs workers, the calling thread included, and
 * returns the results in config order. @p run must derive all
 * randomness from the config-independent seeds it closes over (that
 * is what makes the runs "paired") and must be safe to call
 * concurrently. Exceptions are captured per config and the lowest
 * config index is rethrown after the pool drains, so failures are
 * deterministic regardless of jobs.
 */
template <typename Run>
auto
runPaired(size_t configs, unsigned jobs, Run run)
    -> std::vector<std::invoke_result_t<Run &, size_t>>
{
    using Result = std::invoke_result_t<Run &, size_t>;
    std::vector<std::optional<Result>> slots(configs);
    runIndexed(configs, jobs,
               [&](size_t c) { slots[c].emplace(run(c)); });

    std::vector<Result> out;
    out.reserve(configs);
    for (std::optional<Result> &r : slots)
        out.push_back(std::move(*r));
    return out;
}

} // namespace iocost::host

#endif // IOCOST_HOST_SWEEP_HH
