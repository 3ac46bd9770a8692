/**
 * @file
 * FleetScenario — compact spec for heterogeneous simulated fleets.
 *
 * A datacenter-scale fleet (10k–100k hosts) cannot be expressed by
 * enumerating hosts. A FleetScenario instead describes the fleet as
 * *mixes* — device mix over the paper's A–H SSD population, workload
 * mix, staged migration plan, fault plan — plus per-host-day knobs,
 * parsed from a one-line (or small-file, TOML-ish) spec:
 *
 *   hosts=10000 days=24 seed=2022 shards=64
 *   migration=4..10:30,12..20:70
 *   devices=A:25,D:25,G:25,H:25
 *   workloads=mixed:60,writeheavy:25,readheavy:15
 *   faults=lat@1s+500ms=4,err@1s+500ms=0.01
 *
 * Tokens are whitespace/newline separated `key=value` pairs; `#`
 * starts a comment through end of line, so the same grammar reads a
 * one-liner on the CLI or a small scenario file.
 *
 * Every per-host property (device, workload shape, migration day,
 * host-day RNG seed) is derived purely from (scenario seed, host
 * index) — never from execution order — so any shard count, worker
 * count, or work-stealing schedule reproduces byte-identical
 * fleets.
 */

#ifndef IOCOST_FLEET_FLEET_SCENARIO_HH
#define IOCOST_FLEET_FLEET_SCENARIO_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "device/ssd_model.hh"
#include "sim/time.hh"

namespace iocost::fleet {

/** Workload shape a host runs alongside the deadline agents. */
enum class WorkloadKind : uint8_t
{
    /** Saturating random reads + a large-write stream (the fig18/19
     *  shape: drains the device's burst buffer into GC). */
    Mixed,
    /** Read-dominated: deep random reads, a trickle of writes. */
    ReadHeavy,
    /** Write-dominated: deep large-write streams, shallow reads. */
    WriteHeavy,
    /** Rate-arrival read bursts over a shallow write stream. */
    Bursty,
    /** Buffered IO through the page cache: a dirtier stream, an
     *  fsync-storm stream, and a cache-friendly direct reader
     *  (requires pagecache=; see FleetScenario::pagecacheBytes). */
    Buffered,
};

/** @return "mixed" / "readheavy" / "writeheavy" / "bursty" /
 *  "buffered". */
const char *workloadKindName(WorkloadKind kind);

/**
 * The Fig. 18 and Fig. 19 migration studies (paper §4.8) as scenario
 * specs: old- and new-generation SSD hosts half and half, every other
 * key at its default — 60 hosts, 24 days, mixed workloads, migration
 * staggered across days 6..18.
 */
inline constexpr const char *kFig18Spec =
    "seed=1818 devices=oldgen,newgen";
inline constexpr const char *kFig19Spec =
    "seed=1919 devices=oldgen,newgen";

/** One stage of the IOLatency -> IOCost migration plan. */
struct MigrationStage
{
    /** Hosts in the stage migrate staggered across
     *  [startDay, endDay). */
    unsigned startDay = 0;
    unsigned endDay = 0;
    /** Fraction of the fleet covered by this stage (stages are
     *  assigned to contiguous host-index ranges in order). */
    double fraction = 1.0;
};

/**
 * Compact fleet description. See file header for the grammar.
 */
struct FleetScenario
{
    /** One device class in the mix with its fleet share. */
    struct DeviceShare
    {
        device::SsdSpec spec;
        double share = 1.0;
    };

    /** One workload shape in the mix with its fleet share. */
    struct WorkloadShare
    {
        WorkloadKind kind = WorkloadKind::Mixed;
        double share = 1.0;
    };

    unsigned hosts = 60;
    unsigned days = 24;
    uint64_t seed = 2022;

    /** Preferred shard count (0 = auto from the worker count). */
    unsigned shards = 0;

    /** Migration stages; empty = nobody ever migrates. */
    std::vector<MigrationStage> stages;

    /** Device mix (shares are normalized; need not sum to 100). */
    std::vector<DeviceShare> devices;

    /** Workload mix (shares are normalized). */
    std::vector<WorkloadShare> workloads;

    /** Device fault spec applied to every host-day slice
     *  (sim::FaultPlan::parse grammar; empty = healthy fleet). */
    std::string faults;

    /**
     * Page cache size per host (`pagecache=512M`); 0 disables
     * buffered IO. Auto-set to 512M when the workload mix contains
     * `buffered` and no explicit size was given. When non-zero,
     * every host-day gets a PageCache (all workload kinds — the
     * flusher only runs when something dirties pages).
     */
    uint64_t pagecacheBytes = 0;

    /** Hard dirty wall as a percent of the page cache
     *  (`dirty_ratio=20`); the background threshold tracks at
     *  half. 0 keeps PageCacheConfig defaults. */
    double dirtyRatioPct = 0.0;

    /**
     * Multi-config sweep: full controller spec lines (one per
     * config, parseControllerSpec grammar). When non-empty the
     * scenario is run through FleetSim::runScenarioSweep(): every
     * host-day is evaluated once per config with the SAME host-day
     * seed (common random numbers), and one aggregate is produced
     * per config. Migration stages are ignored under a sweep — each
     * config applies fleet-wide for all days. Spec-file key:
     * `sweep=iocost,min=25;iocost,min=50` (';' separates configs,
     * ',' separates tokens within one).
     */
    std::vector<std::string> sweep;

    /** Capture per-slice telemetry into HostDayOutcome::records
     *  (forces per-host retention — incompatible with constant-
     *  memory streaming; used by the iocost_mon replay). */
    bool telemetry = false;

    /** Wall length of one host-day sample slice (`slice=`). */
    sim::Time slice = 2 * sim::kSec;

    /**
     * Warmup before the agents start (`warmup=`): long enough that
     * the main workload's write stream has drained the device's
     * burst buffer (the contended regime the agents really run in).
     */
    sim::Time warmup = 2500 * sim::kMsec;

    /** Package fetch: bytes written by the system service
     *  (`fetch=`), and the scaled stand-in for its timeout
     *  (`fetch_deadline=`). */
    uint64_t fetchBytes = 16ull << 20;
    sim::Time fetchDeadline = 1 * sim::kSec;

    /** Cleanup: small metadata operations (`cleanup=`) of
     *  `cleanup_io=` bytes each, and the scaled stand-in for the 5s
     *  cleanup threshold (`cleanup_deadline=`). */
    unsigned cleanupOps = 200;
    uint32_t cleanupIoBytes = 16 * 1024;
    sim::Time cleanupDeadline = 500 * sim::kMsec;

    /**
     * Test seam for the shard exception boundary: the slice at
     * (throwAtDay, throwAtHost) throws std::runtime_error mid-run.
     * Defaults never fire.
     */
    unsigned throwAtDay = std::numeric_limits<unsigned>::max();
    unsigned throwAtHost = std::numeric_limits<unsigned>::max();

    /**
     * Parse a spec (grammar in the file header). `@path` values for
     * the caller to resolve are NOT handled here — pass file
     * contents directly.
     *
     * @throws std::invalid_argument on malformed input, naming the
     *         offending token.
     */
    static FleetScenario parse(const std::string &spec);

    /** Canonical one-line form; parse(canonical()) round-trips. */
    std::string canonical() const;

    // -----------------------------------------------------------
    // Deterministic per-host derivations. All are functions of
    // (seed, host[, day]) only — independent of shard and worker
    // layout by construction.
    // -----------------------------------------------------------

    /** Day the host migrates IOLatency -> IOCost (>= days: never). */
    unsigned migrationDay(unsigned host) const;

    /** Index into devices for this host. */
    unsigned deviceIndexFor(unsigned host) const;

    /** Workload shape for this host. */
    WorkloadKind workloadFor(unsigned host) const;

    /** RNG seed for one host-day slice: a SplitMix64 chain over
     *  (seed, day, host), collision-free at 100k+ hosts. */
    uint64_t hostDaySeed(unsigned day, unsigned host) const;
};

} // namespace iocost::fleet

#endif // IOCOST_FLEET_FLEET_SCENARIO_HH
