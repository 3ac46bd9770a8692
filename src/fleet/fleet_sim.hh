/**
 * @file
 * Fleet-scale Monte-Carlo for the migration studies (paper §4.8,
 * Figs. 18/19) — sharded engine.
 *
 * The paper reports package-fetching and container-cleanup failure
 * rates across a region of hundreds of thousands of hosts over a
 * two-month staged migration from IOLatency to IOCost. We reproduce
 * the mechanism at reduced scale: every host-day runs a short
 * simulation slice in which a host-critical cleanup agent and a
 * system-slice package fetcher race their (scaled-down) deadlines
 * while the main workload saturates the device; the host's
 * controller — IOLatency before its migration day, IOCost after —
 * decides whether the agents starve.
 *
 * Execution model: the fleet is partitioned into contiguous host
 * shards. Workers pull whole shards from a shared queue (work
 * stealing rebalances load automatically) and fold each finished
 * host-day into the shard's private ShardAccumulator; shards merge
 * in a deterministic tree order at the end. Because every per-host
 * property derives purely from (scenario seed, host) and every
 * folded quantity is exact integer arithmetic, the aggregate is
 * byte-identical for ANY jobs/shards combination — and memory is
 * O(shards), independent of fleet size.
 */

#ifndef IOCOST_FLEET_FLEET_SIM_HH
#define IOCOST_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_aggregate.hh"
#include "fleet/fleet_scenario.hh"
#include "sim/time.hh"

namespace iocost::fleet {

/** Fleet/migration configuration (legacy fig18/19 form; new code
 *  should prefer FleetScenario). */
struct FleetConfig
{
    /** Hosts in the simulated region. */
    unsigned hosts = 60;

    /** Days simulated. */
    unsigned days = 24;

    /** Hosts migrate IOLatency -> IOCost staggered across
     *  [migrationStartDay, migrationEndDay). */
    unsigned migrationStartDay = 6;
    unsigned migrationEndDay = 18;

    /** Wall length of one host-day sample slice. */
    sim::Time slice = 2 * sim::kSec;

    /**
     * Warmup before the agents start: long enough that the main
     * workload's write stream has drained the device's burst buffer
     * (the contended regime the agents really run in).
     */
    sim::Time warmup = 2500 * sim::kMsec;

    /** Package fetch: bytes written by the system service. */
    uint64_t fetchBytes = 16ull << 20;
    /** Scaled stand-in for the fetch timeout. */
    sim::Time fetchDeadline = 1 * sim::kSec;

    /** Cleanup: number of small metadata operations. */
    unsigned cleanupOps = 200;
    uint32_t cleanupIoBytes = 16 * 1024;
    /** Scaled stand-in for the 5s cleanup threshold. */
    sim::Time cleanupDeadline = 500 * sim::kMsec;

    /** Base RNG seed. */
    uint64_t seed = 2022;

    /**
     * Capture per-slice telemetry (period-level records from the
     * controller, block layer, and device) into
     * HostDayOutcome::records. Off by default: the migration
     * benches only need the aggregate counters.
     */
    bool telemetry = false;

    /**
     * Device fault spec applied to every host-day slice (see
     * sim::FaultPlan::parse for the grammar; empty = healthy
     * fleet). The plan seed is mixed with each slice's seed, so
     * error draws decorrelate across hosts while the whole run
     * stays byte-deterministic at any `jobs`.
     */
    std::string faults;
};

/**
 * Map a legacy FleetConfig onto the scenario form. The resulting
 * scenario uses SeedMode::Legacy and DeviceAssign::LegacyParity, so
 * runScenario() over it reproduces the historical fig18/19 runs
 * byte-for-byte.
 */
FleetScenario scenarioFromConfig(const FleetConfig &cfg);

/** Execution layout for runScenario(). */
struct RunOptions
{
    /** Worker threads; 1 = sequential in the calling thread,
     *  0 = one per hardware thread. */
    unsigned jobs = 1;

    /**
     * Shard count override; 0 defers to the scenario's `shards` key
     * and then to the auto policy (8 shards per worker, clamped to
     * the host count). More shards = finer work-stealing granularity
     * at O(days) memory each. Never affects any aggregated byte.
     */
    unsigned shards = 0;
};

/**
 * The fleet simulator.
 */
class FleetSim
{
  public:
    /**
     * Run one host-day slice (legacy entry point).
     *
     * @param controller "iolatency" or "iocost".
     * @param host_kind 0 = old-gen SSD host, 1 = new-gen SSD host.
     * @param seed Determinism seed for this slice.
     * @param cfg Fleet configuration (deadlines etc.).
     */
    static HostDayOutcome runHostDay(const std::string &controller,
                                     int host_kind, uint64_t seed,
                                     const FleetConfig &cfg);

    /**
     * Run one host-day slice of a scenario host.
     *
     * @param spec Device the host runs on.
     * @param kind Main-workload shape.
     */
    static HostDayOutcome runHostDay(const FleetScenario &sc,
                                     const device::SsdSpec &spec,
                                     WorkloadKind kind,
                                     const std::string &controller,
                                     uint64_t seed);

    /**
     * Run a full scenario through the sharded engine.
     *
     * Memory stays O(shards * days): per-host results are folded
     * into per-shard accumulators as they finish and never
     * retained. The returned aggregate is byte-identical for any
     * jobs/shards combination.
     *
     * A slice that throws poisons only its shard: the first
     * exception per shard is captured, remaining shards still
     * drain, and after a clean join the exception from the
     * lowest-indexed failed shard is rethrown (deterministic
     * regardless of worker scheduling).
     */
    static FleetAggregate runScenario(const FleetScenario &sc,
                                      const RunOptions &opts = {});

    /**
     * As runScenario(), additionally exposing every host-day
     * outcome (indexed day * sc.hosts + host) so callers can
     * serialize per-slice telemetry. This abandons constant memory
     * — the grid is O(hosts * days) — and exists for the
     * iocost_mon per-host replay path.
     */
    static FleetAggregate
    runScenario(const FleetScenario &sc, const RunOptions &opts,
                std::vector<HostDayOutcome> *outcomes_out);

    /**
     * Run a multi-config sweep through the sharded engine: every
     * host-day slice is evaluated once per entry of sc.sweep with
     * the SAME hostDaySeed, so cross-config deltas are paired on
     * common random numbers (the workload intensity knobs, agent
     * offsets, and device fault draws are identical across configs;
     * only the controller differs). One aggregate is returned per
     * config, in sweep order; each is byte-identical for any
     * jobs/shards combination, and identical to a K = 1 sweep of
     * that config alone.
     *
     * Fleet host-days are closed feedback loops (the agents' issue
     * times depend on their completions), so unlike the single-host
     * sweep the configs cannot share one device stream — pairing by
     * seed is the CRN mechanism here.
     *
     * Migration stages are ignored: each config applies fleet-wide
     * for all days. A config's samples land under its mechanism's
     * summary slot ("iocost" for iocost entries, "iolatency" for
     * everything else). Telemetry capture is not supported.
     *
     * @throws std::invalid_argument on an empty sweep list, a
     *         malformed entry, or sc.telemetry set.
     */
    static std::vector<FleetAggregate>
    runScenarioSweep(const FleetScenario &sc,
                     const RunOptions &opts = {});

    /**
     * The CLIs' fleet run: runScenarioSweep() when the scenario has
     * sweep= configs, else runScenario(), as the view its JSON
     * document is written from (labels = sc.sweep, one entry per
     * config; see writeViewJson).
     */
    static SweepView runScenarioView(const FleetScenario &sc,
                                     const RunOptions &opts);

    /**
     * Run the full migration study (legacy entry point; wraps
     * runScenario over scenarioFromConfig). Byte-identical to the
     * pre-sharding implementation for any jobs value.
     *
     * @param jobs Worker threads; 1 = sequential in the calling
     *             thread, 0 = one per hardware thread.
     */
    static std::vector<FleetDayResult> run(const FleetConfig &cfg,
                                           unsigned jobs = 1);

    /**
     * As run(), additionally exposing every host-day outcome
     * (indexed day * cfg.hosts + host) so callers can serialize
     * per-slice telemetry. The outcome grid, like the day results,
     * is byte-identical for any jobs value.
     */
    static std::vector<FleetDayResult>
    run(const FleetConfig &cfg, unsigned jobs,
        std::vector<HostDayOutcome> *outcomes_out);

    /** Day a given host migrates (staggered across the window). */
    static unsigned migrationDay(unsigned host,
                                 const FleetConfig &cfg);
};

} // namespace iocost::fleet

#endif // IOCOST_FLEET_FLEET_SIM_HH
