/**
 * @file
 * Deterministic device fault injection.
 *
 * The paper's central claim is that IOCost keeps latency SLOs on
 * *misbehaving* devices — write-cliff SSDs, GC storms, fleet devices
 * with wildly degraded tails (§2, §5). A FaultPlan describes a
 * schedule of degradation windows; a FaultInjector evaluates it at
 * simulated time and hands the device models four orthogonal fault
 * effects:
 *
 *  - **latency multipliers** (`lat@...=mult`): every service time in
 *    the window is scaled, modeling thermal throttling or a degraded
 *    flash die;
 *  - **transient IO errors** (`err@...=rate`): each request drawn
 *    inside the window fails with the given probability after its
 *    full service time, driving the block layer's retry path;
 *  - **full stalls** (`stall@...`): the device freezes for the whole
 *    window — a firmware brownout, every in-window request is pushed
 *    to the window's end;
 *  - **early write-cliff onset** (`cliff@...`): the SSD's write
 *    buffer is forced empty for the window, dropping the device into
 *    its GC regime regardless of the actual write history.
 *
 * Determinism: the injector owns a *private* Rng seeded from the
 * plan (`seed=` token) xor a caller-provided mix (the fleet passes
 * its slice seed), and consumes randomness only for requests inside
 * an error window. Installing a fault plan therefore perturbs
 * neither the devices' jitter streams nor the simulator's fork
 * order, and fault schedules replay byte-identically at any --jobs.
 *
 * The plan also carries the block layer's retry policy (`retries=`,
 * `backoff=`, `timeout=` tokens) so one `--faults` spec string
 * configures the whole degraded-device scenario.
 */

#ifndef IOCOST_SIM_FAULT_HH
#define IOCOST_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/state.hh"
#include "sim/time.hh"

namespace iocost::sim {

/** One kind of injected device misbehaviour. */
enum class FaultKind : uint8_t
{
    /** Scale service times by `param` while active. */
    LatencyMult,
    /** Fail each request with probability `param` while active. */
    ErrorRate,
    /** Freeze the device until the window ends. */
    Stall,
    /** Force the SSD write buffer empty (GC regime) while active. */
    WriteCliff,
};

/** @return "lat" / "err" / "stall" / "cliff". */
const char *faultKindName(FaultKind kind);

/** One scheduled fault window. */
struct FaultWindow
{
    FaultKind kind = FaultKind::LatencyMult;
    /** Window start (absolute simulated time). */
    Time start = 0;
    /** Window length. */
    Time duration = 0;
    /** Multiplier (LatencyMult) or error probability (ErrorRate). */
    double param = 0.0;

    /** Window end (exclusive). */
    Time end() const { return start + duration; }

    /** @return true while @p now lies inside the window. */
    bool
    active(Time now) const
    {
        return now >= start && now < end();
    }
};

/**
 * A deterministic fault schedule plus the retry policy that rides
 * along with it. Parsed from the `--faults` spec grammar:
 *
 *   spec    := token ("," token)*
 *   token   := "lat@" START "+" DUR "=" MULT
 *            | "err@" START "+" DUR "=" RATE
 *            | "stall@" START "+" DUR
 *            | "cliff@" START "+" DUR
 *            | "seed=" N | "retries=" N
 *            | "backoff=" TIME | "timeout=" TIME
 *   TIME    := <number>["ns"|"us"|"ms"|"s"]   (default unit: ms)
 *
 * Example: "lat@2s+1s=6,err@2s+1s=0.02,cliff@2s+1s,timeout=80ms"
 */
struct FaultPlan
{
    std::vector<FaultWindow> windows;

    /** Injector seed (`seed=` token). */
    uint64_t seed = 1;

    /** Block-layer retry bound (`retries=` token). */
    unsigned maxRetries = 4;
    /** First retry backoff; doubles per attempt (`backoff=`). */
    Time retryBackoffBase = 100 * kUsec;
    /** Per-bio timeout; 0 disables (`timeout=` token). */
    Time bioTimeout = 0;

    /** @return true when no fault windows are scheduled. */
    bool empty() const { return windows.empty(); }

    /**
     * Parse a spec string (grammar above).
     *
     * @throws std::invalid_argument on malformed input, naming the
     *         offending token.
     */
    static FaultPlan parse(const std::string &spec);
};

/**
 * Evaluates a FaultPlan against simulated time for one device.
 *
 * Installed into a BlockDevice (setFaultInjector); the device models
 * query it on every submission. All query methods take the current
 * time explicitly so the injector needs no Simulator reference and
 * stays trivially testable.
 */
class FaultInjector
{
  public:
    /**
     * @param plan The fault schedule.
     * @param seed_mix Xored into the plan seed; the fleet passes its
     *        slice seed so per-host error draws decorrelate while
     *        remaining byte-deterministic.
     */
    explicit FaultInjector(FaultPlan plan, uint64_t seed_mix = 0)
        : plan_(std::move(plan)), rng_(plan_.seed ^ seed_mix)
    {}

    /** The installed plan. */
    const FaultPlan &plan() const { return plan_; }

    /** Product of active latency multipliers (1.0 outside windows). */
    double
    latencyMult(Time now) const
    {
        double mult = 1.0;
        for (const FaultWindow &w : plan_.windows) {
            if (w.kind == FaultKind::LatencyMult && w.active(now))
                mult *= w.param;
        }
        return mult;
    }

    /** End of the latest active stall window, or 0 when none. */
    Time
    stallUntil(Time now) const
    {
        Time until = 0;
        for (const FaultWindow &w : plan_.windows) {
            if (w.kind == FaultKind::Stall && w.active(now))
                until = std::max(until, w.end());
        }
        return until;
    }

    /** @return true while a write-cliff window is active. */
    bool
    writeCliffActive(Time now) const
    {
        for (const FaultWindow &w : plan_.windows) {
            if (w.kind == FaultKind::WriteCliff && w.active(now))
                return true;
        }
        return false;
    }

    /**
     * Draw the fate of one request. Consumes randomness only inside
     * an active error window (so a plan without error windows leaves
     * the draw sequence untouched).
     *
     * @return true if the request must fail.
     */
    bool
    drawError(Time now)
    {
        double rate = 0.0;
        for (const FaultWindow &w : plan_.windows) {
            if (w.kind == FaultKind::ErrorRate && w.active(now))
                rate = std::max(rate, w.param);
        }
        if (rate <= 0.0)
            return false;
        if (!rng_.chance(rate))
            return false;
        ++errorsInjected_;
        return true;
    }

    /**
     * Deduplicate stall telemetry: true exactly once per distinct
     * stall window end (devices emit one `stall_us` record per
     * brownout, not one per delayed request).
     */
    bool
    shouldReportStall(Time stall_end)
    {
        if (stall_end == lastStallReported_)
            return false;
        lastStallReported_ = stall_end;
        return true;
    }

    /** Requests failed by error windows so far. */
    uint64_t errorsInjected() const { return errorsInjected_; }

    /**
     * Append a window to the installed plan. What-if queries use
     * this to stack a hypothetical fault onto an existing schedule;
     * determinism is unaffected because the error-draw Rng is part
     * of snapshot state and windows are evaluated by wall time.
     */
    void addWindow(const FaultWindow &w) { plan_.windows.push_back(w); }

    /** @name Snapshot support (the whole plan is state: what-if
     *  queries mutate it, so restore must roll it back too).
     *  @{ */
    void saveState(StateWriter &w) const { walk(*this, w); }
    void loadState(StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        // Field-by-field, not pods: FaultWindow carries padding
        // after its uint8 kind, and raw padding bytes would make
        // the tape differ between byte-identical states.
        t.template size<uint64_t>(self.plan_.windows);
        for (auto &win : self.plan_.windows) {
            t.value(win.kind);
            t.value(win.start);
            t.value(win.duration);
            t.value(win.param);
        }
        t.value(self.plan_.seed);
        t.value(self.plan_.maxRetries);
        t.value(self.plan_.retryBackoffBase);
        t.value(self.plan_.bioTimeout);
        t.rng(self.rng_);
        t.value(self.lastStallReported_);
        t.value(self.errorsInjected_);
    }

    FaultPlan plan_;
    Rng rng_;
    Time lastStallReported_ = -1;
    uint64_t errorsInjected_ = 0;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_FAULT_HH
