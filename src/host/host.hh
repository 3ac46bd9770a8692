/**
 * @file
 * Host: one simulated machine assembled from the substrate modules.
 *
 * Bundles a block device, the block layer, the cgroup hierarchy in
 * Meta's production shape (Fig. 1: system / hostcritical /
 * workload slices), an IO controller selected by name, and an
 * optional memory manager. Benches and examples construct Hosts
 * instead of wiring the pieces by hand.
 */

#ifndef IOCOST_HOST_HOST_HH
#define IOCOST_HOST_HOST_HH

#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "controllers/factory.hh"
#include "core/iocost.hh"
#include "mm/memory_manager.hh"
#include "mm/page_cache.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/state.hh"

namespace iocost::host {

/** io.weight of the three top-level slices, on every Host and sweep
 *  lane. */
inline constexpr uint32_t kWorkloadWeight = 500;
inline constexpr uint32_t kHostCriticalWeight = 100;
inline constexpr uint32_t kSystemWeight = 50;

/** Host assembly options. */
struct HostOptions
{
    /**
     * Mechanism plus its configuration (see
     * controllers::makeController). Assigning a bare name string
     * keeps the embedded configs, so `opts.controller = "kyber";`
     * and `opts.controller.iocost.qos.period = ...;` compose in
     * either order.
     */
    controllers::ControllerSpec controller = "iocost";

    /**
     * Telemetry sink installed on the block layer (not owned; must
     * outlive the Host). nullptr leaves telemetry disabled.
     */
    stat::TelemetrySink *telemetrySink = nullptr;

    /** Emit per-completion detail records (see stat::Telemetry). */
    bool telemetryDetail = false;

    /** Construct a MemoryManager backed by this host's device. */
    bool enableMemory = false;
    mm::MemoryConfig memoryConfig;

    /**
     * Construct a PageCache (buffered IO + dirty writeback) backed
     * by this host's device. Unlike the memory manager, the page
     * cache is fully snapshottable, so buffered scenarios work with
     * branch()/what-if.
     */
    bool enablePageCache = false;
    mm::PageCacheConfig pageCacheConfig;

    /** Enable the submission-path CPU model (Fig. 9). */
    bool submissionCpu = false;

    /**
     * Device fault spec (sim::FaultPlan::parse grammar). Non-empty
     * installs a FaultInjector on the device and the spec's retry
     * policy on the block layer; parse errors throw
     * std::invalid_argument from the Host constructor. Empty (the
     * default) models a healthy device.
     */
    std::string faults;

    /**
     * Xored into the fault plan's seed (the fleet passes its slice
     * seed so hosts decorrelate deterministically).
     */
    uint64_t faultSeedMix = 0;

    /**
     * Install a FaultInjector even when `faults` is empty (an empty
     * plan: zero windows, default retry policy — behaviorally
     * identical to no injector). The what-if service sets this so
     * inject-fault queries can add windows to an otherwise healthy
     * scenario; the injector must exist *before* the baseline runs
     * or its presence would not survive snapshot/restore.
     */
    bool installFaultInjector = false;
};

class Host;

/**
 * An immutable image of one Host's complete mutable state: event
 * arena, clocks, RNGs, cgroup weights, in-flight and queued bios,
 * controller accounting, device internals, workload cursors.
 *
 * Snapshots are value objects: copyable, thread-safe to destroy
 * anywhere (all boxed bios are heap-backed), and restorable any
 * number of times — each restore clones queued bios afresh, so two
 * branches seeded from one snapshot never alias.
 */
class HostSnapshot
{
  public:
    HostSnapshot() = default;

    /** Image size in bytes (perf_kernel tracks this). */
    size_t byteSize() const { return image_.byteSize(); }

    /** Deep-cloned objects (bios, event callbacks) in the image. */
    size_t boxCount() const { return image_.boxCount(); }

    /**
     * The raw image. The byte tape is a deterministic function of
     * host state, so tests compare two hosts for state equality by
     * comparing `image().bytes` (boxed bios live behind pointers
     * and are excluded from the byte comparison).
     */
    const sim::StateImage &image() const { return image_; }

  private:
    friend class Host;
    sim::StateImage image_;
};

/**
 * RAII what-if branch: construction snapshots the host and swaps
 * its telemetry to a forked (or disconnected) sink; destruction
 * restores the snapshot and reinstalls the baseline sink. Run any
 * hypothetical inside the scope — weight changes, fault windows,
 * model swaps, more simulated time — and the host rolls back to the
 * branch point, byte-identical, when the scope ends.
 */
class BranchScope
{
  public:
    explicit BranchScope(Host &host);
    ~BranchScope();

    BranchScope(const BranchScope &) = delete;
    BranchScope &operator=(const BranchScope &) = delete;

    /** The branch-point image (restorable again later). */
    const HostSnapshot &snapshot() const { return snap_; }

  private:
    Host &host_;
    HostSnapshot snap_;
    stat::TelemetrySink *baselineSink_ = nullptr;
    std::unique_ptr<stat::TelemetrySink> branchSink_;
};

/**
 * One simulated machine.
 */
class Host
{
  public:
    /**
     * @param sim Shared simulation context (multiple Hosts may share
     *        one simulator, e.g. the ZooKeeper cluster bench).
     * @param device The backing block device (ownership taken).
     * @param opts Assembly options.
     */
    Host(sim::Simulator &sim,
         std::unique_ptr<blk::BlockDevice> device, HostOptions opts);

    /**
     * Non-copyable and non-movable: the block layer holds a
     * reference to the member cgroup tree, so relocating a Host
     * would dangle it. Heap-allocate Hosts that must outlive a
     * scope.
     */
    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    blk::BlockLayer &layer() { return *layer_; }
    cgroup::CgroupTree &tree() { return tree_; }
    blk::BlockDevice &device() { return *device_; }
    sim::Simulator &sim() { return sim_; }

    /** The memory manager; requires enableMemory. */
    mm::MemoryManager &mm() { return *mm_; }
    bool hasMemory() const { return mm_ != nullptr; }

    /** The page cache; requires enablePageCache. */
    mm::PageCache &pageCache() { return *pagecache_; }
    bool hasPageCache() const { return pagecache_ != nullptr; }

    /** Top-level slices (Fig. 1). */
    cgroup::CgroupId system() const { return system_; }
    cgroup::CgroupId hostCritical() const { return hostCritical_; }
    cgroup::CgroupId workload() const { return workload_; }

    /** Create a container cgroup under the workload slice. */
    cgroup::CgroupId
    addWorkload(const std::string &name, uint32_t weight = 100)
    {
        return tree_.create(workload_, name, weight);
    }

    /** Create a service cgroup under the system slice. */
    cgroup::CgroupId
    addSystemService(const std::string &name, uint32_t weight = 100)
    {
        return tree_.create(system_, name, weight);
    }

    /** The installed IoCost, or nullptr for other mechanisms. */
    core::IoCost *
    iocost()
    {
        return dynamic_cast<core::IoCost *>(layer_->controller());
    }

    /** The fault injector, or nullptr for a healthy device. */
    sim::FaultInjector *faults() { return faults_.get(); }

    /**
     * Register an external mutable-state object (a workload) with
     * the snapshot machinery. Registration order defines the tape
     * layout, so callers must track the same objects in the same
     * order on every host built from one scenario — the natural
     * consequence of deterministic construction. The object must
     * outlive the host's last snapshot()/restore() call.
     */
    void track(sim::Snapshottable &obj) { tracked_.push_back(&obj); }

    /**
     * Capture the host's complete mutable state. Panics when the
     * memory manager is enabled (its async-loop closures alias
     * shared_ptr state the tape cannot clone) — what-if scenarios
     * model IO control, not reclaim.
     */
    HostSnapshot snapshot() const;

    /**
     * Roll every layer back to @p snap, in place: captured `this`
     * pointers in restored event callbacks stay valid because the
     * object graph never moves. The same snapshot may be restored
     * any number of times. This is also the ONE way to reset a host
     * for re-runs — snapshot the pristine (or post-warmup) state
     * once and restore instead of rebuilding or hand-resetting.
     */
    void restore(const HostSnapshot &snap);

    /** Open a what-if branch at the current instant (see
     *  BranchScope). */
    BranchScope branch() { return BranchScope(*this); }

    /**
     * The one documented stats-boundary reset (warmup ends here):
     * clears the block layer's per-cgroup accounting. Workload
     * counters reset through their own resetStats() — or, better,
     * snapshot() at the boundary and restore() to re-run.
     */
    void resetStats() { layer_->resetStats(); }

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        // Tape order is the restore order; every layer appears exactly
        // once. The simulator (event arena + clock + root RNG) goes
        // first so a restore rebuilds the arena before any component
        // rebinds its EventHandles against it.
        t.sub(self.sim_);
        t.sub(self.tree_);
        t.sub(*self.device_);
        t.sub(*self.layer_);
        t.same(self.faults_ != nullptr,
               "Host::restore: fault injector presence mismatch — "
               "snapshots restore state, not structure");
        if (self.faults_)
            t.sub(*self.faults_);
        t.same(self.pagecache_ != nullptr,
               "Host::restore: page cache presence mismatch — "
               "snapshots restore state, not structure");
        if (self.pagecache_)
            t.sub(*self.pagecache_);
        t.template same<uint32_t>(
            self.tracked_.size(),
            "Host::restore: tracked-object count mismatch — "
            "register the same workloads in the same order");
        for (sim::Snapshottable *obj : self.tracked_)
            t.sub(*obj);
    }

    sim::Simulator &sim_;
    std::unique_ptr<blk::BlockDevice> device_;
    /** Owned injector; outlives the device's borrowed pointer. */
    std::unique_ptr<sim::FaultInjector> faults_;
    cgroup::CgroupTree tree_;
    std::unique_ptr<blk::BlockLayer> layer_;
    std::unique_ptr<mm::MemoryManager> mm_;
    std::unique_ptr<mm::PageCache> pagecache_;
    cgroup::CgroupId system_ = cgroup::kNone;
    cgroup::CgroupId hostCritical_ = cgroup::kNone;
    cgroup::CgroupId workload_ = cgroup::kNone;
    /** Externally owned snapshot participants, in track() order. */
    std::vector<sim::Snapshottable *> tracked_;
};

} // namespace iocost::host

#endif // IOCOST_HOST_HOST_HH
