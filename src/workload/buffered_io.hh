/**
 * @file
 * Buffered-IO workload: closed-loop streams through the page cache.
 *
 * The buffered counterpart of FioWorkload: operations go through
 * mm::PageCache instead of straight into the block layer, so writes
 * dirty pages at memory speed (until the dirty wall or the
 * controller's debt delay paces them) and reads hit or miss the
 * cache. Two shapes matter for the paper's Figs. 14/15 narrative:
 *
 *  - the *dirtier*: write-heavy, no fsync — a batch job laundering
 *    a write flood through the flusher;
 *  - the *fsync storm*: small writes with periodic fsync barriers —
 *    a database-style workload whose latency collapses when the
 *    flusher's IO is starved or unattributed.
 */

#ifndef IOCOST_WORKLOAD_BUFFERED_IO_HH
#define IOCOST_WORKLOAD_BUFFERED_IO_HH

#include <cstdint>
#include <string>

#include "mm/page_cache.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"

namespace iocost::workload {

/** Configuration of one buffered-IO job. */
struct BufferedConfig
{
    std::string name = "buffered";

    /** Fraction of operations that are reads. */
    double readFraction = 0.0;

    /** Fraction of operations at random offsets (rest sequential). */
    double randomFraction = 0.0;

    /** Bytes per operation. */
    uint32_t blockSize = 64 * 1024;

    /** Addressable span (also registered as the cgroup's cache
     *  working-set span). */
    uint64_t spanBytes = 4ull << 30;

    /** Base offset of this job's file region. */
    uint64_t offsetBase = 0;

    /** fsync after every N writes; 0 = never. */
    uint32_t fsyncEvery = 0;

    /** Closed-loop delay after each completed operation. */
    sim::Time thinkTime = 100 * sim::kUsec;

    /** Concurrent streams. */
    unsigned depth = 1;
};

/**
 * One running buffered job issuing page-cache operations on behalf
 * of a cgroup.
 */
class BufferedWorkload : public sim::Snapshottable
{
  public:
    BufferedWorkload(sim::Simulator &sim, mm::PageCache &cache,
                     cgroup::CgroupId cg, BufferedConfig cfg);

    /** Begin issuing. */
    void start();

    /** Stop issuing (parked operations still complete). */
    void stop();

    /** Completed operations (fsyncs included) since start. */
    uint64_t completed() const { return completed_; }

    /** Completed operations per second over the run so far. */
    double iops() const;

    /** Operation latency (issue-to-return) histogram: buffered
     *  writes are ~0 until a stall or debt delay bites — the
     *  distribution's tail IS the protection story. */
    const stat::Histogram &latency() const { return latency_; }

    /** fsync barriers completed. */
    uint64_t fsyncsDone() const { return fsyncsDone_; }

    /** Issuing cgroup. */
    cgroup::CgroupId cg() const { return cg_; }

    const BufferedConfig &config() const { return cfg_; }

    /** Reset counters (e.g. after a warmup phase). */
    void resetStats();

    /**
     * @name Snapshot support. Same contract as FioWorkload: the
     * config is identity, the Rng/cursors/counters/histogram are
     * state; parked operations live in the PageCache slot arena
     * and pending think-time hops in the event arena.
     * @{
     */
    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }
    /** @} */

  private:
    void issueOne();
    void onDone(sim::Time latency);

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.rng(self.rng_);
        t.value(self.running_);
        t.value(self.inFlight_);
        t.value(self.completed_);
        t.value(self.fsyncsDone_);
        t.value(self.writesSinceFsync_);
        t.value(self.seqCursor_);
        t.value(self.statsStart_);
        t.sub(self.latency_);
    }

    sim::Simulator &sim_;
    mm::PageCache &cache_;
    cgroup::CgroupId cg_;
    BufferedConfig cfg_;
    sim::Rng rng_;

    bool running_ = false;
    unsigned inFlight_ = 0;
    uint64_t completed_ = 0;
    uint64_t fsyncsDone_ = 0;
    uint32_t writesSinceFsync_ = 0;
    uint64_t seqCursor_ = 0;
    sim::Time statsStart_ = 0;
    stat::Histogram latency_;
};

} // namespace iocost::workload

#endif // IOCOST_WORKLOAD_BUFFERED_IO_HH
