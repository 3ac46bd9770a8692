/**
 * @file
 * fio-style synthetic IO workload generator.
 *
 * Reproduces the workload shapes the paper's evaluation uses:
 *
 *  - Saturating: keep a fixed number of IOs in flight (fio iodepth);
 *  - Rate: open-loop arrivals at a fixed ops/sec;
 *  - ThinkTime: closed loop, next IO issued a fixed think time after
 *    the previous completion (Fig. 11's high-priority workload);
 *  - LatencyGoverned: issue as fast as possible while the observed
 *    p50 completion latency stays under a target, shedding load when
 *    it does not (Figs. 10/11's latency-sensitive services).
 */

#ifndef IOCOST_WORKLOAD_FIO_WORKLOAD_HH
#define IOCOST_WORKLOAD_FIO_WORKLOAD_HH

#include <cstdint>
#include <deque>
#include <string>

#include "blk/block_layer.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "stat/histogram.hh"

namespace iocost::workload {

/** Arrival process of a FioWorkload. */
enum class Arrival
{
    Saturating,
    Rate,
    ThinkTime,
    LatencyGoverned,
};

/** Configuration of one fio-style job. */
struct FioConfig
{
    std::string name = "fio";

    /** Fraction of operations that are reads. */
    double readFraction = 1.0;

    /** Fraction of operations at random offsets (rest sequential). */
    double randomFraction = 1.0;

    /** Transfer size per IO. */
    uint32_t blockSize = 4096;

    /** Addressable span for offsets. */
    uint64_t spanBytes = 64ull << 30;

    /**
     * Base offset of this job's region (jobs working on distinct
     * files/partitions must not overlap, or sequential streams
     * alias each other's blocks).
     */
    uint64_t offsetBase = 0;

    Arrival arrival = Arrival::Saturating;

    /** Saturating: IOs kept in flight. */
    unsigned iodepth = 64;

    /** Rate: operations per second (open loop). */
    double ratePerSec = 1000.0;

    /** ThinkTime: delay after each completion. */
    sim::Time thinkTime = 100 * sim::kUsec;

    /**
     * LatencyGoverned: issue continuously (closed loop) at an
     * adaptive concurrency — grow while the window p50 stays under
     * latencyTarget, back off when it does not (AIMD).
     */
    sim::Time latencyTarget = 200 * sim::kUsec;
    sim::Time governWindow = 20 * sim::kMsec;
    /** LatencyGoverned: concurrency ceiling. */
    unsigned governMaxDepth = 32;
};

/**
 * One running fio job issuing bios into a BlockLayer on behalf of a
 * cgroup.
 */
class FioWorkload : public sim::Snapshottable
{
  public:
    FioWorkload(sim::Simulator &sim, blk::BlockLayer &layer,
                cgroup::CgroupId cg, FioConfig cfg);

    /** Begin issuing. */
    void start();

    /** Stop issuing (in-flight IOs still complete). */
    void stop();

    /** Completed operations since start. */
    uint64_t completed() const { return completed_; }

    /** Completed operations per second over the run so far. */
    double iops() const;

    /** Completion latency (submit-to-complete) histogram. */
    const stat::Histogram &latency() const { return latency_; }

    /** Issuing cgroup. */
    cgroup::CgroupId cg() const { return cg_; }

    const FioConfig &config() const { return cfg_; }

    /** Reset counters (e.g. after a warmup phase). */
    void resetStats();

    /**
     * @name Snapshot support. The config is immutable identity; the
     * issue loop's Rng, cursors, counters, latency windows, and
     * pending timers are state. In-flight bios are owned by the
     * stack below (block layer / device / event arena) — only the
     * count lives here.
     * @{
     */
    void saveState(sim::StateWriter &w) const override { walk(*this, w); }
    void loadState(sim::StateReader &r) override { walk(*this, r); }
    /** @} */

  private:
    void issueOne();
    void onDone(sim::Time latency);
    void scheduleNext();
    void govern();

    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.rng(self.rng_);
        t.value(self.running_);
        t.value(self.inFlight_);
        t.value(self.completed_);
        t.value(self.seqCursor_);
        t.value(self.statsStart_);
        t.sub(self.latency_);
        t.value(self.governDepth_);
        t.sub(self.windowLat_);
        self.sim_.events().handle(t, self.governTimer_);
        self.sim_.events().handle(t, self.nextIssue_);
    }

    sim::Simulator &sim_;
    blk::BlockLayer &layer_;
    cgroup::CgroupId cg_;
    FioConfig cfg_;
    sim::Rng rng_;

    bool running_ = false;
    unsigned inFlight_ = 0;
    uint64_t completed_ = 0;
    uint64_t seqCursor_ = 0;
    sim::Time statsStart_ = 0;
    stat::Histogram latency_;

    /** LatencyGoverned adaptive state. */
    unsigned governDepth_ = 1;
    stat::Histogram windowLat_;
    sim::EventHandle governTimer_;
    sim::EventHandle nextIssue_;
};

} // namespace iocost::workload

#endif // IOCOST_WORKLOAD_FIO_WORKLOAD_HH
