/**
 * @file
 * Constant-memory streaming aggregation for the fleet engine.
 *
 * The sharded fleet runner never retains per-host state: each worker
 * folds every finished host-day into its shard's ShardAccumulator
 * (a fixed-size arena of day counters, latency histograms, and
 * per-day failure series), and the shards are merged in a
 * deterministic tree order when the run completes. Memory is
 * O(shards * days), independent of host count, and because every
 * folded quantity is held in exact integer arithmetic the merged
 * FleetAggregate is byte-identical for any shard/worker layout.
 */

#ifndef IOCOST_FLEET_FLEET_AGGREGATE_HH
#define IOCOST_FLEET_FLEET_AGGREGATE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "stat/histogram.hh"
#include "stat/telemetry.hh"
#include "stat/time_series.hh"

namespace iocost::fleet {

/** Controller index in the split aggregates. */
enum : unsigned
{
    kCtlIoLatency = 0,
    kCtlIoCost = 1,
};

/** One day's aggregate outcome. */
struct FleetDayResult
{
    unsigned day = 0;
    double fractionOnIoCost = 0.0;
    unsigned fetchAttempts = 0;
    unsigned fetchFailures = 0;
    unsigned cleanupAttempts = 0;
    unsigned cleanupFailures = 0;
};

/** Outcome of a single host-day slice. */
struct HostDayOutcome
{
    bool fetchFailed = false;
    bool cleanupFailed = false;
    sim::Time fetchTime = 0;
    sim::Time cleanupTime = 0;
    /** Telemetry captured when the scenario requests it. */
    std::vector<stat::Record> records;
};

/**
 * Fleet-level result of a sharded run: per-day counters plus the
 * merged streaming aggregates.
 */
struct FleetAggregate
{
    /** Per-day counters, index == day. */
    std::vector<FleetDayResult> days;

    /** Completed agent times (ns), split by controller
     *  ([kCtlIoLatency] / [kCtlIoCost]). Agents that never finished
     *  inside the slice are counted as failures, not recorded. */
    stat::Histogram fetchTime[2];
    stat::Histogram cleanupTime[2];

    /** Per-day failure counts (time axis = day index). */
    stat::TimeSeries fetchFailures{"fetch_failures"};
    stat::TimeSeries cleanupFailures{"cleanup_failures"};

    uint64_t hostDays = 0;
    unsigned hosts = 0;
    /** Execution layout of the producing run (informational; does
     *  not affect any aggregated byte). */
    unsigned shards = 0;
    unsigned jobs = 0;
};

/**
 * Per-shard arena. One lives on each shard; the owning worker folds
 * host-day outcomes into it with no locks and no shared state, and
 * all storage is sized up front in the constructor so the
 * steady-state fold and merge paths perform zero heap allocations
 * (gated by `perf_fleet --check-allocs`).
 */
class ShardAccumulator
{
  public:
    explicit ShardAccumulator(unsigned days);

    /** Fold one finished host-day into the arena. */
    void fold(unsigned day, bool on_iocost,
              const HostDayOutcome &outcome);

    /**
     * Emit the per-day failure series (one point per day). Must be
     * called exactly once, after the shard's last fold and before
     * the shard is merged.
     */
    void finalizeSeries();

    /**
     * Merge another (finalized) shard into this one. Exact: every
     * merged quantity is integer-valued, so any merge tree over the
     * same folds produces bit-identical state.
     */
    void mergeFrom(const ShardAccumulator &other);

    /** Assemble the fleet-level result (after all merges). */
    FleetAggregate finish(unsigned hosts, unsigned shards,
                          unsigned jobs) const;

  private:
    struct DayCounters
    {
        uint32_t migrated = 0;
        uint32_t fetchAttempts = 0;
        uint32_t fetchFailures = 0;
        uint32_t cleanupAttempts = 0;
        uint32_t cleanupFailures = 0;
    };

    std::vector<DayCounters> days_;
    stat::Histogram fetchTime_[2];
    stat::Histogram cleanupTime_[2];
    stat::TimeSeries fetchFailSeries_{"fetch_failures"};
    stat::TimeSeries cleanupFailSeries_{"cleanup_failures"};
    /** Swap space for TimeSeries::mergeSum (reserved up front). */
    std::vector<stat::SeriesPoint> scratch_;
    bool finalized_ = false;
};

/**
 * Rendered view of an aggregate — what the JSON carries and what
 * iocost_mon prints. Derived from a FleetAggregate or parsed back
 * from a file.
 */
struct AggregateView
{
    struct CtlSummary
    {
        uint64_t fetchCount = 0;
        double fetchP50Ms = 0, fetchP99Ms = 0, fetchMeanMs = 0;
        uint64_t cleanupCount = 0;
        double cleanupP50Ms = 0, cleanupP99Ms = 0,
               cleanupMeanMs = 0;
    };

    unsigned hosts = 0;
    unsigned days = 0;
    uint64_t hostDays = 0;
    unsigned shards = 0;
    unsigned jobs = 0;
    CtlSummary ctl[2]; // [kCtlIoLatency], [kCtlIoCost]
    std::vector<FleetDayResult> perDay;

    static AggregateView from(const FleetAggregate &agg);
};

/** Write the streaming-aggregate JSON document. */
void writeAggregateJson(const AggregateView &view, FILE *out);

/**
 * Read an aggregate JSON document produced by writeAggregateJson.
 * @return nullopt when the buffer is not an aggregate document
 *         (e.g. legacy per-host JSONL).
 */
std::optional<AggregateView>
readAggregateJson(const std::string &text);

/**
 * A sweep document: one labeled aggregate per config, in sweep
 * order. Labels are the controller spec lines the configs ran.
 */
struct SweepView
{
    std::vector<std::string> labels;
    std::vector<AggregateView> entries;
};

/** Write the multi-config sweep JSON document (a "fleet_sweep"
 *  wrapper embedding one aggregate document per config). */
void writeSweepJson(const SweepView &view, FILE *out);

/** A sweep document when @p view has labels, else its single
 *  aggregate document. */
void writeViewJson(const SweepView &view, FILE *out);

/**
 * Read a sweep JSON document produced by writeSweepJson.
 * @return nullopt when the buffer is not a sweep document (callers
 *         sniff this before trying readAggregateJson).
 */
std::optional<SweepView> readSweepJson(const std::string &text);

} // namespace iocost::fleet

#endif // IOCOST_FLEET_FLEET_AGGREGATE_HH
