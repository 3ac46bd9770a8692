/**
 * @file
 * The end-to-end benchmark's five workloads.
 *
 * A workload is built once (set-up: device profiling, host assembly,
 * warm-up, replica builds) and then runs timed repetitions of a fixed
 * amount of simulated work. Every repetition reports its host wall
 * time, the operations it completed, per-request latencies and a
 * digest of the simulated outputs it produced.
 */

#ifndef IOCOST_BENCH_E2E_WORKLOADS_HH
#define IOCOST_BENCH_E2E_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace iocost::e2e {

struct Options
{
    uint64_t seed = 1;
    /** About 1/50 of the full work sizes (the ctest smoke run). */
    bool smoke = false;
    /** Worker threads for the fleet and the what-if service. */
    unsigned threads = 1;
};

/** One timed repetition. */
struct RepResult
{
    double wallS = 0.0;
    /** Bios, lane-bios, host-days or queries completed. */
    uint64_t ops = 0;
    /** Of those, the ones that failed (non-Ok bios, error docs). */
    uint64_t failed = 0;
    /** Host time of each request the repetition answered. */
    std::vector<double> requestMs;
    /** FNV-1a of the simulated outputs. */
    uint64_t digest = 0;
};

/** Per-layer metric values by name (see the table in main.cc). */
using LayerValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run repetition @p index; any reset happens before timing. */
    virtual RepResult rep(unsigned index) = 0;

    /**
     * Per-layer metrics: what the decorators and spans saw during
     * the repetitions run so far, plus the workload's layer probes.
     * Called once, on the traced instance, after its repetitions.
     */
    virtual void layerMetrics(LayerValues &out) = 0;

    /** False when repetitions answer different inputs (what-if). */
    virtual bool repsIdentical() const { return true; }

    /** Host time set-up spent profiling devices. */
    double profileMs() const { return profileMs_; }

    /** Seed-independent invariants violated so far. */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  protected:
    void violation(std::string what)
    {
        violations_.push_back(std::move(what));
    }

    double profileMs_ = 0.0;

  private:
    std::vector<std::string> violations_;
};

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Workload names, in run order. */
const std::vector<std::string> &workloadNames();

/**
 * Set a workload up. A non-null @p tracer assembles it with the
 * timing decorators and spans; otherwise it is assembled identically
 * without them.
 * @throws std::invalid_argument for an unknown name.
 */
std::unique_ptr<Workload> setUp(const std::string &name,
                                 const Options &opts, Tracer *tracer);

} // namespace iocost::e2e

#endif // IOCOST_BENCH_E2E_WORKLOADS_HH
