/**
 * @file
 * Simulation driver bundling the event queue and the root RNG.
 *
 * A Simulator is the shared context every simulated component (block
 * layer, devices, memory manager, workloads) is constructed against.
 * It owns the clock and hands out deterministic child RNG streams.
 */

#ifndef IOCOST_SIM_SIMULATOR_HH
#define IOCOST_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace iocost::sim {

/**
 * Top-level simulation context.
 *
 * Components keep a reference to the Simulator and use it to read the
 * clock, schedule events, and derive RNG streams. The Simulator must
 * outlive every component constructed against it.
 */
class Simulator
{
  public:
    /** @param seed Root seed; all randomness derives from it. */
    explicit Simulator(uint64_t seed = 1)
        : rootRng_(seed)
    {}

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time (ns). */
    Time now() const { return events_.now(); }

    /** The event queue. */
    EventQueue &events() { return events_; }

    /** Schedule @p fn to run @p delay from now. */
    template <typename F>
    EventHandle
    after(Time delay, F &&fn)
    {
        return events_.scheduleAfter(delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when. */
    template <typename F>
    EventHandle
    at(Time when, F &&fn)
    {
        return events_.scheduleAt(when, std::forward<F>(fn));
    }

    /** Run the simulation until simulated time @p until. */
    uint64_t runUntil(Time until) { return events_.runUntil(until); }

    /** Run until no events remain. */
    uint64_t runAll() { return events_.runAll(); }

    /** Fork an independent deterministic RNG stream. */
    Rng forkRng() { return rootRng_.fork(); }

    /** @name Snapshot support: clock, event arena, root RNG.
     *  @{ */
    void saveState(StateWriter &w) const { walk(*this, w); }
    void loadState(StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.sub(self.events_);
        t.rng(self.rootRng_);
    }

    EventQueue events_;
    Rng rootRng_;
};

/**
 * Utility that invokes a callback on a fixed period until stopped.
 *
 * Used for controller planning paths and workload pacing. The timer
 * is safe to destroy at any point; the pending event is cancelled.
 */
class PeriodicTimer
{
  public:
    /**
     * @param sim Simulation context.
     * @param period Interval between invocations.
     * @param cb Callback to run every period.
     */
    PeriodicTimer(Simulator &sim, Time period, EventCallback cb)
        : sim_(sim), period_(period), cb_(std::move(cb))
    {}

    ~PeriodicTimer() { stop(); }

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Arm the timer; first firing is one period from now. */
    void
    start()
    {
        if (running_)
            return;
        running_ = true;
        arm();
    }

    /** Disarm the timer. */
    void
    stop()
    {
        running_ = false;
        pending_.cancel();
    }

    /** Change the period; takes effect at the next (re)arming. */
    void setPeriod(Time period) { period_ = period; }

    /** Current period. */
    Time period() const { return period_; }

    /** @return true if the timer is armed. */
    bool running() const { return running_; }

    /**
     * @name Snapshot support.
     *
     * The pending tick lives in the event arena (captured as
     * Tick{this}, which stays valid across an in-place restore), so
     * only the handle coordinates and the armed flag are state
     * here; cb_ is wiring, not state.
     * @{
     */
    void saveState(StateWriter &w) const { walk(*this, w); }
    void loadState(StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.running_);
        t.value(self.period_);
        self.sim_.events().handle(t, self.pending_);
    }

    /**
     * Pointer-sized re-arm thunk: always stored inline in the event
     * slot, so a running timer never allocates. The callback itself
     * is wrapped exactly once (in cb_) for the timer's lifetime —
     * the seed kernel re-wrapped it in a fresh closure every period.
     */
    struct Tick
    {
        PeriodicTimer *timer;
        void operator()() { timer->fire(); }
    };

    void arm() { pending_ = sim_.after(period_, Tick{this}); }

    void
    fire()
    {
        if (!running_)
            return;
        cb_();
        if (running_)
            arm();
    }

    Simulator &sim_;
    Time period_;
    EventCallback cb_;
    EventHandle pending_;
    bool running_ = false;
};

} // namespace iocost::sim

#endif // IOCOST_SIM_SIMULATOR_HH
