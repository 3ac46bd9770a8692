/**
 * @file
 * What-if query service: load a scenario once, checkpoint the
 * baseline at the scenario's marks, answer hypothetical queries by
 * branching from the nearest checkpoint and replaying forward.
 *
 * Execution model: each worker thread owns a full scenario REPLICA
 * (its own Simulator, Host, workloads, and checkpoint images).
 * Replicas are byte-identical by construction — the simulation is
 * deterministic in the scenario seed — so any worker can answer any
 * query, and answers are byte-identical regardless of which worker
 * ran them, how queries were interleaved, or whether the branch
 * replayed from a checkpoint or a cold full re-run (the
 * determinism gate tests assert the last equivalence).
 *
 * Bio pools are thread-local, so a replica must be built AND run on
 * the same thread; the worker loop owns its replica for exactly
 * this reason.
 *
 * Results are cached keyed by (scenario hash, canonical query):
 * repeated queries cost a map lookup, not a replay.
 */

#ifndef IOCOST_WHATIF_SERVICE_HH
#define IOCOST_WHATIF_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host/host.hh"
#include "host/scenario.hh"
#include "whatif/query.hh"
#include "whatif/scenario.hh" // the whatif::Scenario name

namespace iocost::whatif {

/** End-of-run counters for one workload cgroup (exact integers, so
 *  diff documents compare byte-for-byte across replay paths). */
struct JobStats
{
    std::string name;
    uint64_t ios = 0;
    uint64_t bytes = 0;
    int64_t p50Ns = 0;
    int64_t p99Ns = 0;
    uint64_t errors = 0;
};

/** End-of-run summary of one (baseline or branch) execution. */
struct RunStats
{
    std::vector<JobStats> jobs;
    bool isIocost = false;
    double vrate = 0.0;
};

/**
 * One worker's private copy of the scenario: host, workloads, the
 * baseline result, and the checkpoint images captured while the
 * baseline ran.
 */
class Replica
{
  public:
    /**
     * Build the host, run the baseline to the scenario duration,
     * capture a checkpoint at every mark.
     *
     * @param checkpoints When false, skip the snapshot captures
     *        (the cold-run path of the determinism gate).
     * @throws std::invalid_argument on a bad device, controller,
     *         fault, or job spec.
     */
    explicit Replica(const host::ScenarioSpec &sc,
                     bool checkpoints = true);

    /** Baseline end-of-run stats. */
    const RunStats &baseline() const { return baseline_; }

    /**
     * Answer one query: restore the nearest checkpoint at or before
     * q.from, replay to q.from, apply the change, run to the end,
     * and return the branch stats. Requires checkpoints.
     * @throws std::invalid_argument on an unknown cgroup or an
     *         inapplicable device profile.
     */
    RunStats branch(const Query &q);

    /**
     * Answer one query without touching the checkpoint machinery:
     * run a FRESH replica from t=0 to q.from, apply, run to the
     * end. The determinism gate compares this against branch().
     */
    static RunStats cold(const host::ScenarioSpec &sc,
                         const Query &q);

    /** Snapshot cost of this replica's t=0 checkpoint, in bytes. */
    size_t checkpointBytes() const;

  private:
    struct BuildOnly
    {
    };

    /** Assemble the host and start the workloads without running
     *  any simulated time (the cold-run path drives it manually). */
    Replica(const host::ScenarioSpec &sc, BuildOnly);

    void apply(const Query &q);
    RunStats collect() const;

    host::ScenarioSpec sc_;
    sim::Simulator sim_;
    std::unique_ptr<host::ScenarioHost> scenario_;
    std::vector<std::pair<sim::Time, host::HostSnapshot>>
        checkpoints_;
    RunStats baseline_;
};

/**
 * The concurrent query service.
 */
class Service
{
  public:
    /**
     * @param threads Worker count; 0 = one per hardware thread.
     *        Each worker lazily builds its replica on first use, on
     *        its own thread.
     */
    explicit Service(host::ScenarioSpec sc, unsigned threads = 1);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Enqueue a query; the future resolves to a one-line
     * "whatif_diff" JSON document (or a "whatif_error" document if
     * evaluation failed — parse errors throw from Query::parse
     * before anything is enqueued).
     */
    std::future<std::string> submit(const Query &q);

    /** submit() and wait. */
    std::string evaluate(const Query &q);

    /**
     * The determinism gate: evaluate the query on a fresh host with
     * no checkpoint machinery at all. Byte-identical to evaluate()
     * for every valid query.
     */
    static std::string evaluateCold(const host::ScenarioSpec &sc,
                                    const Query &q);

    const host::ScenarioSpec &scenario() const { return sc_; }

    /** Cache hits served so far (observability, tests). */
    uint64_t cacheHits() const;

  private:
    struct Task
    {
        Query query;
        std::string cacheKey;
        std::promise<std::string> promise;
    };

    void workerLoop();

    host::ScenarioSpec sc_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Task> tasks_;
    bool stopping_ = false;
    uint64_t cacheHits_ = 0;
    std::map<std::string, std::string> cache_;
    std::vector<std::thread> workers_;
};

/** Render one result document (exposed for the tools and tests). */
std::string diffJson(const host::ScenarioSpec &sc, const Query &q,
                     const RunStats &baseline,
                     const RunStats &branch);

/** Render one "whatif_error" document; @p q names the failed query
 *  (nullptr when the line did not parse). */
std::string errorJson(const std::string &what,
                      const Query *q = nullptr);

} // namespace iocost::whatif

#endif // IOCOST_WHATIF_SERVICE_HH
