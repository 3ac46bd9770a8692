/**
 * @file
 * The block layer: glue between submitters, the IO controller, and
 * the device.
 *
 * Responsibilities (mirroring the kernel's):
 *  - accept bios from workloads / the memory manager;
 *  - hand every bio to the installed controller (which may hold it);
 *  - dispatch controller-released bios to the device, parking them in
 *    a FIFO when the device queue is full;
 *  - fan completions back out (controller notification, per-cgroup
 *    accounting, submitter callback).
 */

#ifndef IOCOST_BLK_BLOCK_LAYER_HH
#define IOCOST_BLK_BLOCK_LAYER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "blk/bio.hh"
#include "blk/bio_state.hh"
#include "blk/block_device.hh"
#include "blk/io_controller.hh"
#include "cgroup/cgroup_tree.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"
#include "stat/telemetry.hh"

namespace iocost::blk {

/**
 * Per-cgroup IO accounting kept by the block layer.
 */
struct CgroupIoStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t readBytes = 0;
    uint64_t writeBytes = 0;
    /** Device-level failures observed (each failed attempt). */
    uint64_t errors = 0;
    /** Requeues after a failed attempt. */
    uint64_t retries = 0;
    /** Bios that exceeded the per-bio timeout. */
    uint64_t timeouts = 0;
    /** Bios delivered to the submitter with a non-Ok status. */
    uint64_t failures = 0;
    /** Dirty-writeback bios completed (flusher IO, bio->wb). */
    uint64_t wbWrites = 0;
    /** Bytes cleaned by those writeback completions. */
    uint64_t wbBytes = 0;
    /** Submission-to-completion latency (what the app observes). */
    stat::Histogram totalLatency;
    /** Dispatch-to-completion latency (what the device delivered). */
    stat::Histogram deviceLatency;
};

/**
 * The block layer for one device.
 */
class BlockLayer
{
  public:
    /**
     * @param sim Simulation context.
     * @param device The backing device (not owned).
     * @param tree The cgroup hierarchy (not owned).
     */
    BlockLayer(sim::Simulator &sim, BlockDevice &device,
               cgroup::CgroupTree &tree);

    /**
     * Error-handling policy (the kernel's bounded requeue + request
     * timeout). Defaults mean: up to 4 requeues with exponential
     * backoff, no per-bio timeout — and, with no fault injector
     * installed, zero behavioral change on the hot path.
     */
    struct RetryPolicy
    {
        /** Requeue attempts before a bio fails permanently. */
        unsigned maxRetries = 4;
        /** Backoff before attempt n is 'backoffBase << (n - 1)'. */
        sim::Time backoffBase = 100 * sim::kUsec;
        /** Submit-to-completion deadline; 0 disables timeouts. */
        sim::Time bioTimeout = 0;
    };

    /** Install the error-handling policy. */
    void setRetryPolicy(const RetryPolicy &policy) { retry_ = policy; }

    /** The active error-handling policy. */
    const RetryPolicy &retryPolicy() const { return retry_; }

    /** Install the IO controller (nullptr = no control, direct). */
    void setController(std::unique_ptr<IoController> controller);

    /** The installed controller, or nullptr. */
    IoController *controller() { return controller_.get(); }

    /** Submit a bio into the stack. */
    void submit(BioPtr bio);

    /**
     * Enable the submission-path CPU model: each submitted bio
     * serializes on one simulated CPU for the controller's
     * issueCpuCost() before reaching the controller. Off by default;
     * the Fig. 9 overhead bench turns it on.
     */
    void setSubmissionCpuEnabled(bool enabled)
    {
        cpuEnabled_ = enabled;
    }

    /** CPU cost charged per bio when no controller is installed. */
    static constexpr sim::Time kNoControllerCpuCost = 150;

    /**
     * Dispatch a controller-released bio toward the device. Parks it
     * in the elevator FIFO if the device is saturated; while parked,
     * contiguous same-direction bios of one cgroup are back-merged
     * into larger requests (the kernel's plug/elevator merging),
     * which is what keeps interleaved sequential streams efficient
     * on seek-bound media.
     */
    void dispatch(BioPtr bio);

    /** Upper bound on a merged request's size. */
    static constexpr uint32_t kMaxMergedBytes = 512 * 1024;

    /** Parked bios scanned for a back-merge (plug-list window). */
    static constexpr size_t kMergeScanWindow = 64;

    /**
     * Enable/disable back-merging of parked bios. On by default.
     * Sweep execution turns it off on every layer it builds: merging
     * rewrites bio identity (the absorbed bio never reaches the
     * device), which would break the id-keyed outcome replay that
     * keeps the lanes on one device stream.
     */
    void setMergeEnabled(bool enabled) { mergeEnabled_ = enabled; }

    /** Bios absorbed into merged requests so far. */
    uint64_t mergedBios() const { return mergedBios_; }

    /** Simulation context. */
    sim::Simulator &sim() const { return sim_; }

    /** The cgroup hierarchy. */
    cgroup::CgroupTree &cgroups() { return tree_; }

    /** The device. */
    BlockDevice &device() { return device_; }

    /**
     * The stack's telemetry handle. The layer owns it; the
     * controller and the device publish through it. Install a sink
     * (setTelemetrySink) to start the record flow.
     */
    stat::Telemetry &telemetry() { return telemetry_; }

    /** Install a telemetry sink (not owned; nullptr disconnects). */
    void
    setTelemetrySink(stat::TelemetrySink *sink)
    {
        telemetry_.setSink(sink);
    }

    /** Per-cgroup accounting (grows on demand). */
    const CgroupIoStats &stats(cgroup::CgroupId cg) const;

    /** Reset all per-cgroup accounting (benches reuse stacks). */
    void resetStats();

    /** Bios accepted so far. */
    uint64_t submitted() const { return submitted_; }

    /** Bios completed so far (successes and final failures). */
    uint64_t completed() const { return completed_; }

    /** Failed device attempts observed so far. */
    uint64_t deviceErrors() const { return deviceErrors_; }

    /** Requeues performed so far. */
    uint64_t retries() const { return retries_; }

    /** Bios that exceeded the per-bio timeout. */
    uint64_t timeouts() const { return timeouts_; }

    /** Bios delivered to submitters with a non-Ok status. */
    uint64_t failedBios() const { return failed_; }

    /** Bios sitting in the post-controller dispatch FIFO. */
    size_t dispatchQueueDepth() const { return dispatchQueue_.size(); }

    /**
     * Count of dispatch attempts that found the device queue full
     * since the last readAndResetQueueFullEvents() call. IOCost's
     * planning path consumes this as its request-depletion signal.
     */
    uint64_t
    readAndResetQueueFullEvents()
    {
        const uint64_t n = queueFullEvents_;
        queueFullEvents_ = 0;
        return n;
    }

    /**
     * @name Fused-sweep accounting hooks (host::FusedObserver).
     *
     * The sweep's fused observer performs this layer's per-bio work
     * for lockstep lanes without materializing a bio. Each hook
     * replicates exactly the mutations the corresponding full-path
     * function makes for a status-Ok bio; the observer calls them in
     * full-path order. Only meaningful on shadow-lane layers, where
     * merging, the submission-CPU model, and detail telemetry are
     * all off.
     * @{
     */

    /**
     * Apply a deferred batch of acceptance/completion counts. The
     * observer counts fused submissions and Ok completions once, in
     * shared scratch, and lands the identical integer deltas on
     * every fused lane at its flush points (planning boundaries,
     * forks, stat reads) — addition commutes, so deferral cannot
     * change results.
     */
    void
    fusedApplyDeferred(uint64_t submits, uint64_t completes)
    {
        nextBioId_ += submits;
        submitted_ += submits;
        completed_ += completes;
    }

    /**
     * Merge a deferred per-cgroup stats window (Ok completions only:
     * counts, bytes, and the two latency histograms — error counters
     * always go through the full path).
     */
    void fusedMergeStats(cgroup::CgroupId cg,
                         const CgroupIoStats &delta);

    /** Next bio id to be assigned (fused lockstep assertion). */
    uint64_t nextBioId() const { return nextBioId_; }

    /** onDeviceComplete()'s accounting for one Ok completion
     *  (immediate form, for completions that straddle a refusion). */
    void fusedCompleteStats(Op op, uint32_t size,
                            cgroup::CgroupId cg, bool wb,
                            sim::Time total_latency,
                            sim::Time device_latency);

    /** onDeviceComplete()'s freed-device-slot drain. */
    void fusedCompleteDrain() { drainDispatchQueue(); }
    /** @} */

    /**
     * @name Snapshot support (sim::Snapshottable shape).
     *
     * Serializes the retry policy (what-if fault queries rewrite
     * it), the parked dispatch FIFO, the per-cgroup accounting
     * table, all counters, and the installed controller's state.
     * The device is NOT covered here — the Host snapshots it
     * separately, matching the ownership split.
     * @{
     */
    void saveState(sim::StateWriter &w) const { walk(*this, w); }
    void loadState(sim::StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    void onDeviceComplete(BioPtr bio, sim::Time device_latency);
    void handleError(BioPtr bio, sim::Time device_latency);
    void failBio(BioPtr bio, sim::Time device_latency);
    bool expired(const Bio &bio) const;
    void drainDispatchQueue();
    void deliverToController(BioPtr bio);
    CgroupIoStats &statsMutable(cgroup::CgroupId cg);

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        // Field-by-field: RetryPolicy pads after its unsigned, and raw
        // padding would make the tape differ between identical states.
        t.value(self.retry_.maxRetries);
        t.value(self.retry_.backoffBase);
        t.value(self.retry_.bioTimeout);
        blk::stateBios(t, self.dispatchQueue_);

        t.template size<uint32_t>(self.stats_);
        for (auto &st : self.stats_) {
            t.value(st.reads);
            t.value(st.writes);
            t.value(st.readBytes);
            t.value(st.writeBytes);
            t.value(st.errors);
            t.value(st.retries);
            t.value(st.timeouts);
            t.value(st.failures);
            t.value(st.wbWrites);
            t.value(st.wbBytes);
            t.sub(st.totalLatency);
            t.sub(st.deviceLatency);
        }

        t.value(self.nextBioId_);
        t.value(self.submitted_);
        t.value(self.completed_);
        t.value(self.deviceErrors_);
        t.value(self.retries_);
        t.value(self.timeouts_);
        t.value(self.failed_);
        t.value(self.queueFullEvents_);
        t.value(self.mergedBios_);
        t.value(self.cpuEnabled_);
        t.value(self.mergeEnabled_);
        t.value(self.cpuBusyUntil_);

        if (self.controller_)
            t.sub(*self.controller_);
    }

    sim::Simulator &sim_;
    BlockDevice &device_;
    cgroup::CgroupTree &tree_;
    stat::Telemetry telemetry_;
    std::unique_ptr<IoController> controller_;
    RetryPolicy retry_;
    std::deque<BioPtr> dispatchQueue_;
    /**
     * Per-cgroup table. Deliberately a deque, never a vector:
     * stats() hands out references that callers (benches, tests,
     * agents) hold across further submissions, and a completion
     * callback — which can run inline under dispatch() since the
     * timeout path — may submit from a previously-unseen cgroup id
     * and grow this table. Contiguous storage would invalidate every
     * held reference on reallocation (a use-after-free the
     * regression test in test_error_retry.cc demonstrates); deque
     * growth leaves existing elements in place.
     */
    mutable std::deque<CgroupIoStats> stats_;
    uint64_t nextBioId_ = 1;
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint64_t deviceErrors_ = 0;
    uint64_t retries_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t failed_ = 0;
    uint64_t queueFullEvents_ = 0;
    uint64_t mergedBios_ = 0;
    bool cpuEnabled_ = false;
    bool mergeEnabled_ = true;
    sim::Time cpuBusyUntil_ = 0;
};

} // namespace iocost::blk

#endif // IOCOST_BLK_BLOCK_LAYER_HH
