/**
 * @file
 * The single-host scenario: one description of a host experiment,
 * one job grammar, one host builder.
 *
 * iocost_sim, iocost_mon and the what-if service (iocost_whatif,
 * iocost_sim --whatif) all describe a host the same way and build it
 * through ScenarioHost, so one flag set or one spec string means the
 * same simulated host everywhere. The grammar below is the only
 * definition; the CLI flags map onto it one to one.
 *
 * Spec grammar (ScenarioSpec::parse): ';'- or newline-separated
 * key=value pairs —
 *
 *   device=newgen          a row of the profile table
 *                          (profile::namedDevice); an unknown name
 *                          fails when read (CLI: --device)
 *   controller=iocost min=25 max=150
 *                          a controllers::parseControllerSpec line
 *                          (CLI: --controller)
 *   model=<io.cost.model payload>   (CLI: --model) used when the
 *                          controller line carries no model keys;
 *                          default: the device profile
 *   qos=<io.cost.qos payload>       (CLI: --qos) replaces the QoS of
 *                          every iocost config; without it a line
 *                          with no QoS keys runs min=50 max=100
 *   faults=<sim::FaultPlan spec>    (CLI: --faults) default: healthy
 *   seconds=10             simulated run length (CLI: --seconds)
 *   warmup=5s              where iocost_sim and the figure tables
 *                          reset stats before measuring seconds=;
 *                          0 measures from the start (CLI:
 *                          --warmup; default 10% of seconds=).
 *                          iocost_mon and the what-if service ignore
 *                          it: they measure from t=0 or a query's
 *                          mark
 *   seed=42                (CLI: --seed)
 *   pagecache=512M         per-host page cache, K/M/G suffixes;
 *                          enables buffered jobs (CLI: --pagecache;
 *                          the CLIs default it to 512M when a job is
 *                          buffered, a spec string must say it)
 *   dirty_ratio=20         hard dirty wall, percent of the cache;
 *                          background writeback at half
 *                          (CLI: --dirty-ratio)
 *   job=<job spec>         repeatable (CLI: --job), grammar below
 *   marks=1s,2s,5s         what-if checkpoint marks; t=0 is always
 *                          a mark
 *
 * Times take an ns, us, ms or s suffix; a bare number is ms (not
 * fio's us), so the figure tables write every unit out.
 *
 * Omitted jobs default to web:weight=200:depth=32 and
 * batch:weight=100:depth=32; omitted marks to the run's quarter
 * points.
 *
 * Job grammar (parseJob): name[:key=value]... with keys
 *
 *   weight=W               io.weight of the job's cgroup (100)
 *   depth=D                IOs in flight; concurrent streams of a
 *                          buffered job (64)
 *   bs=BYTES               transfer size > 0, K/M/G suffixes (4K)
 *   rw=read|write|mixed    (read)
 *   pattern=rand|seq       (rand)
 *   rate=R                 open-loop arrivals at R > 0 IOs/s instead of a
 *                          saturating queue (direct jobs)
 *   thinktime=T            closed loop: each of depth= streams waits T
 *                          after a completion before its next IO
 *   latency_target=T       closed loop at an adaptive concurrency that
 *                          grows while the windowed p50 stays under
 *                          T > 0 and sheds load when it does not;
 *                          depth= caps the concurrency. rate=,
 *                          thinktime= and latency_target= exclude
 *                          each other
 *   io.max=riops=N         blk-throttle limits of the job's cgroup:
 *                          the kernel file's line without MAJ:MIN,
 *                          space-separated riops/wiops/rbps/wbps
 *                          (controller=blk-throttle only)
 *   io.latency=target=US   iolatency target of the job's cgroup in
 *                          microseconds, as in the kernel file
 *                          (controller=iolatency only)
 *   buffered=0|1           route through the page cache: writes dirty
 *                          pages, reads hit or miss the cache
 *   fsync=N                fsync barrier every N writes (buffered)
 *   span=BYTES             addressable span, K/M/G suffixes (64G;
 *                          buffered 4G, which is also the cgroup's
 *                          cache working set)
 *
 * Job j works on its own region at offset j << 40.
 */

#ifndef IOCOST_HOST_SCENARIO_HH
#define IOCOST_HOST_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controllers/factory.hh"
#include "core/cost_model.hh"
#include "core/qos.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "sim/time.hh"
#include "stat/histogram.hh"
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace iocost::host {

/** One parsed job (grammar in the file comment). */
struct JobSpec
{
    std::string name = "job";
    uint32_t weight = 100;
    /** Direct-IO shape; a buffered job reuses its fields. */
    workload::FioConfig fio;
    bool buffered = false;
    uint32_t fsyncEvery = 0;
    /** 0 keeps the workload's own default span. */
    uint64_t spanBytes = 0;
    /** io.max of the job's cgroup (blk-throttle). */
    std::optional<controllers::ThrottleLimits> ioMax;
    /** io.latency target of the job's cgroup (iolatency); 0 = none. */
    sim::Time ioLatencyTarget = 0;
};

/**
 * Parse one job spec.
 * @throws std::invalid_argument naming the offending key on a
 *         missing '=', an unknown key or a malformed value.
 */
JobSpec parseJob(const std::string &text);

/** One single-host scenario (grammar in the file comment). */
struct ScenarioSpec
{
    std::string device = "newgen";
    std::string controller = "iocost";
    std::string model;
    std::string qos;
    std::string faults;
    double seconds = 10.0;
    /** Stats reset point of a measured run; unset = 10% of seconds. */
    std::optional<sim::Time> warmup;
    uint64_t seed = 42;

    /** Page cache size (0 = none; buffered jobs then fail to
     *  build). */
    uint64_t pagecacheBytes = 0;

    /** Hard dirty wall as a percent of the cache; 0 keeps
     *  mm::PageCacheConfig defaults. */
    double dirtyRatioPct = 0.0;

    /** Raw job spec strings. */
    std::vector<std::string> jobs;

    /** Checkpoint marks, sorted, deduplicated, starting at 0. */
    std::vector<sim::Time> marks;

    /** Simulated run length. */
    sim::Time duration() const;

    /** The warm-up of a measured run: warmup= when set, else 10% of
     *  the run length. */
    sim::Time warmupTime() const;

    /**
     * Parse a spec and normalize it.
     * @throws std::invalid_argument on a malformed spec.
     */
    static ScenarioSpec parse(const std::string &text);

    /**
     * Fill defaulted jobs/marks and canonicalize the mark list.
     * parse() normalizes automatically; callers assembling a spec
     * field by field must normalize before use.
     * @throws std::invalid_argument on marks beyond the duration, a
     *         non-positive duration, or an io.max / io.latency job
     *         under a controller that does not read it.
     */
    void normalize();

    /** Deterministic one-line rendering (the what-if cache
     *  identity). */
    std::string canonical() const;

    /** FNV-1a hash of canonical(). */
    uint64_t hash() const;

    /** The parsed jobs, each laid out at offset j << 40. */
    std::vector<JobSpec> parsedJobs() const;
};

/** The QoS a scenario's iocost runs when nothing sets one: the
 *  default targets with vrate clamped to 50%..100%. */
core::QosParams defaultQos();

/**
 * Fill the iocost settings a controller spec line leaves out — the
 * one defaulting rule behind every single-host tool and the fleet:
 * @p model unless the line carries model keys, @p qos unless it
 * carries QoS keys (its period= extension still wins).
 */
void applyIocostDefaults(controllers::ControllerSpec &spec,
                         const std::string &line,
                         const core::LinearModelConfig &model,
                         const core::QosParams &qos = defaultQos());

/** Give @p opts a page cache of @p bytes (none when 0) with a hard
 *  dirty wall at @p dirtyRatioPct percent (0 keeps the default). */
void configurePageCache(HostOptions &opts, uint64_t bytes,
                        double dirtyRatioPct);

/**
 * A single-host scenario, built: device, Host, the job cgroups and
 * their running workloads. Construction runs no simulated time.
 *
 * The host always carries a fault injector (an empty plan behaves
 * exactly like none), so what-if fault queries can add windows to a
 * healthy scenario and snapshots taken before them still restore.
 */
class ScenarioHost
{
  public:
    /**
     * @param sink  telemetry sink for the host's block layer (not
     *              owned; must outlive this object), or nullptr.
     * @param detail per-completion telemetry records.
     * @throws std::invalid_argument on a bad device, controller,
     *         model/qos line, fault plan or job, or a buffered job in
     *         a scenario without a page cache.
     */
    ScenarioHost(sim::Simulator &sim, const ScenarioSpec &sc,
                 stat::TelemetrySink *sink = nullptr,
                 bool detail = false);

    Host &host() { return *host_; }

    /** The io.cost.model the host runs (unless the controller line
     *  carries its own model keys). */
    const core::LinearModelConfig &model() const { return model_; }

    /** The controller as built, defaults applied. */
    const controllers::ControllerSpec &controller() const
    {
        return controller_;
    }

    const std::vector<JobSpec> &jobs() const { return jobs_; }
    cgroup::CgroupId jobCgroup(size_t j) const { return cgs_[j]; }

    /** Job @p j's completed operations per second since the last
     *  resetStats(). */
    double iops(size_t j) const;

    /** Job @p j's completion (direct) or issue-to-return (buffered)
     *  latency histogram. */
    const stat::Histogram &latency(size_t j) const;

    /** The warmup boundary: block-layer and job counters. */
    void resetStats();

  private:
    core::LinearModelConfig model_;
    controllers::ControllerSpec controller_;
    std::unique_ptr<Host> host_;
    std::vector<JobSpec> jobs_;
    std::vector<cgroup::CgroupId> cgs_;
    /** One slot per job; exactly one of the two is set. */
    std::vector<std::unique_ptr<workload::FioWorkload>> fio_;
    std::vector<std::unique_ptr<workload::BufferedWorkload>> buffered_;
};

/**
 * The measured run of iocost_sim and the figure tables: simulate to
 * @p sc's warmupTime(), reset @p host's stats, then simulate the
 * scenario's seconds.
 */
void runMeasured(sim::Simulator &sim, ScenarioHost &host,
                 const ScenarioSpec &sc);

/**
 * Sweep assembly for running each line of @p specs against @p sc's
 * device, faults and jobs: makeDevice builds the scenario's device and
 * tweakSpec applies ScenarioHost's defaulting (model and QoS lines,
 * device profile, defaultQos()) to every iocost line.
 * @param model_out receives the io.cost.model lines default to.
 * @throws std::invalid_argument on a bad device or model/qos line, an
 *         empty spec list, a buffered job (sweep lanes have no page
 *         cache), or an io.max / io.latency job (each lane runs its
 *         own controller).
 */
SweepOptions scenarioSweep(const ScenarioSpec &sc,
                           std::vector<std::string> specs,
                           core::LinearModelConfig *model_out = nullptr);

/** Start @p jobs (direct IO) on a sweep's generator. */
std::vector<std::unique_ptr<workload::FioWorkload>>
startSweepJobs(sim::Simulator &sim, SweepRunner &runner,
               const std::vector<JobSpec> &jobs);

/**
 * The single-host flags iocost_sim and iocost_mon share: --device,
 * --controller, --model, --qos, --faults, --seconds, --warmup, --seed,
 * --pagecache, --dirty-ratio and --job, each writing its scenario
 * key. Consumes argv[i] and its value (advancing @p i) when it is one
 * of them; values are validated as they are read.
 * @return false when argv[i] is not a scenario flag.
 * @throws std::invalid_argument on a missing or malformed value (the
 *         caller names the flag).
 */
bool readScenarioFlag(ScenarioSpec &sc, int argc, char **argv, int &i);

/**
 * Finish a flag-built scenario: the CLI-only rule that a buffered job
 * with no --pagecache gets 512M, then normalize().
 * @throws std::invalid_argument from normalize().
 */
void finishScenarioFlags(ScenarioSpec &sc);

} // namespace iocost::host

#endif // IOCOST_HOST_SCENARIO_HH
