/**
 * @file
 * Rate meters and simple counters over simulated time.
 */

#ifndef IOCOST_STAT_METER_HH
#define IOCOST_STAT_METER_HH

#include <cstdint>

#include "sim/state.hh"
#include "sim/time.hh"
#include "stat/window.hh"

namespace iocost::stat {

/**
 * Accumulates a count over simulated time and reports the average
 * rate per second between reset points. Used for IOPS / bytes-per-
 * second reporting in workloads and benches. Follows the common
 * reset(now)/snapshot(now) window convention (stat/window.hh).
 */
class RateMeter
{
  public:
    /** Begin (or restart) the measurement window at time @p now. */
    void
    reset(sim::Time now)
    {
        windowStart_ = now;
        count_ = 0;
    }

    /** Add @p n to the count. */
    void add(uint64_t n = 1) { count_ += n; }

    /** Total accumulated count since reset(). */
    uint64_t count() const { return count_; }

    /** Average rate per second across [reset, now]. */
    double
    perSecond(sim::Time now) const
    {
        const sim::Time elapsed = now - windowStart_;
        if (elapsed <= 0)
            return 0.0;
        return static_cast<double>(count_) /
               sim::toSeconds(elapsed);
    }

    /** Summarize the window as of @p now (percentiles stay 0). */
    WindowSnapshot
    snapshot(sim::Time now) const
    {
        WindowSnapshot s;
        s.windowStart = windowStart_;
        s.windowEnd = now;
        s.count = count_;
        s.perSecond = perSecond(now);
        return s;
    }

    /** @name Snapshot support (window-API companion).
     *  @{ */
    void saveState(sim::StateWriter &w) const { walk(*this, w); }
    void loadState(sim::StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.value(self.windowStart_);
        t.value(self.count_);
    }

    sim::Time windowStart_ = 0;
    uint64_t count_ = 0;
};

/**
 * Exponentially weighted moving average with a configurable time
 * constant, evaluated lazily against the simulated clock. Used for
 * smoothed utilization / rate signals inside controllers.
 */
class Ewma
{
  public:
    /** @param time_constant Time for a step input to reach ~63%. */
    explicit Ewma(sim::Time time_constant)
        : tau_(time_constant)
    {}

    /** Fold in a new sample observed at time @p now. */
    void
    sample(sim::Time now, double value)
    {
        if (!initialized_) {
            value_ = value;
            last_ = now;
            initialized_ = true;
            return;
        }
        const sim::Time dt = now - last_;
        last_ = now;
        if (dt <= 0) {
            // Same-instant samples average equally.
            value_ = 0.5 * value_ + 0.5 * value;
            return;
        }
        // alpha = 1 - exp(-dt / tau), first-order approximation is
        // fine for dt << tau and exact enough elsewhere.
        const double x = static_cast<double>(dt) /
                         static_cast<double>(tau_);
        const double alpha = x >= 20.0 ? 1.0 : 1.0 - fastExpNeg(x);
        value_ += alpha * (value - value_);
    }

    /** Current smoothed value. */
    double value() const { return value_; }

    /** @return true once at least one sample has been folded in. */
    bool initialized() const { return initialized_; }

  private:
    static double
    fastExpNeg(double x)
    {
        // 4th-order rational approximation of exp(-x), adequate for a
        // smoothing filter (max error < 1% on [0, 20]).
        const double d = 1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0 +
                         x / 24.0)));
        return 1.0 / d;
    }

    sim::Time tau_;
    sim::Time last_ = 0;
    double value_ = 0.0;
    bool initialized_ = false;
};

} // namespace iocost::stat

#endif // IOCOST_STAT_METER_HH
