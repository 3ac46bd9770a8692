/**
 * @file
 * Time-series recording for benchmark figure output.
 *
 * Benches that reproduce time-axis figures (vrate adjustment, SLO
 * violations, fleet migrations) record named series of (time, value)
 * points and print them in a uniform layout.
 */

#ifndef IOCOST_STAT_TIME_SERIES_HH
#define IOCOST_STAT_TIME_SERIES_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/state.hh"
#include "sim/time.hh"
#include "stat/window.hh"

namespace iocost::stat {

/** One sample in a series. */
struct SeriesPoint
{
    sim::Time when;
    double value;
};

/**
 * A named sequence of timestamped samples.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(std::string name = {})
        : name_(std::move(name))
    {}

    /** Append a sample. Timestamps are expected non-decreasing. */
    void
    record(sim::Time when, double value)
    {
        points_.push_back(SeriesPoint{when, value});
    }

    const std::string &name() const { return name_; }
    const std::vector<SeriesPoint> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    size_t size() const { return points_.size(); }

    /** Pre-size the point storage (steady-state no-alloc folding). */
    void reserve(size_t n) { points_.reserve(n); }

    /**
     * Merge @p other into this series, summing values at equal
     * timestamps and interleaving the rest in time order. Both
     * series must be sorted by time with unique timestamps (the
     * form every per-shard accumulator produces: one point per
     * day/period).
     *
     * The merge is exact — and therefore independent of shard count
     * and merge order — whenever the values are integer-valued
     * (counts), which is what the fleet engine sums. @p scratch is
     * caller-provided swap space so repeated merges reuse capacity
     * instead of allocating.
     */
    void
    mergeSum(const TimeSeries &other,
             std::vector<SeriesPoint> &scratch)
    {
        if (other.points_.empty())
            return;
        scratch.clear();
        size_t a = 0, b = 0;
        while (a < points_.size() || b < other.points_.size()) {
            if (b >= other.points_.size() ||
                (a < points_.size() &&
                 points_[a].when < other.points_[b].when)) {
                scratch.push_back(points_[a++]);
            } else if (a >= points_.size() ||
                       other.points_[b].when < points_[a].when) {
                scratch.push_back(other.points_[b++]);
            } else {
                scratch.push_back(SeriesPoint{
                    points_[a].when,
                    points_[a].value + other.points_[b].value});
                ++a;
                ++b;
            }
        }
        points_.swap(scratch);
    }

    /**
     * Start a new measurement window at @p now (the common window
     * convention, stat/window.hh). Recorded points are retained —
     * figure output needs the full series — only the window marker
     * that snapshot() summarizes over moves forward.
     */
    void
    reset(sim::Time now)
    {
        windowStart_ = now;
        windowFrom_ = points_.size();
    }

    /** Summarize the samples recorded since reset() as of @p now. */
    WindowSnapshot
    snapshot(sim::Time now) const
    {
        WindowSnapshot s;
        s.windowStart = windowStart_;
        s.windowEnd = now;
        s.count = points_.size() - windowFrom_;
        const sim::Time elapsed = now - windowStart_;
        if (elapsed > 0) {
            s.perSecond = static_cast<double>(s.count) /
                          sim::toSeconds(elapsed);
        }
        if (s.count == 0)
            return s;
        std::vector<double> vals;
        vals.reserve(s.count);
        double sum = 0.0;
        for (size_t i = windowFrom_; i < points_.size(); ++i) {
            vals.push_back(points_[i].value);
            sum += points_[i].value;
        }
        s.mean = sum / static_cast<double>(s.count);
        std::sort(vals.begin(), vals.end());
        auto at = [&](double q) {
            const size_t idx = std::min(
                vals.size() - 1,
                static_cast<size_t>(q *
                                    static_cast<double>(vals.size())));
            return static_cast<int64_t>(vals[idx]);
        };
        s.p50 = at(0.50);
        s.p99 = at(0.99);
        return s;
    }

    /** Mean of all sample values, 0 when empty. */
    double
    mean() const
    {
        if (points_.empty())
            return 0.0;
        double sum = 0.0;
        for (const auto &p : points_)
            sum += p.value;
        return sum / static_cast<double>(points_.size());
    }

    /** Largest sample value, 0 when empty. */
    double
    maxValue() const
    {
        double mx = 0.0;
        for (const auto &p : points_)
            mx = p.value > mx ? p.value : mx;
        return mx;
    }

    /**
     * Downsample to at most @p max_points by averaging fixed-size
     * chunks; used to keep printed figure output readable.
     */
    TimeSeries
    downsample(size_t max_points) const
    {
        TimeSeries out(name_);
        if (points_.size() <= max_points) {
            out.points_ = points_;
            return out;
        }
        const size_t chunk =
            (points_.size() + max_points - 1) / max_points;
        for (size_t i = 0; i < points_.size(); i += chunk) {
            const size_t end =
                i + chunk < points_.size() ? i + chunk
                                           : points_.size();
            double sum = 0.0;
            for (size_t j = i; j < end; ++j)
                sum += points_[j].value;
            out.record(points_[(i + end - 1) / 2].when,
                       sum / static_cast<double>(end - i));
        }
        return out;
    }

    /** @name Snapshot support (window-API companion; the name is
     *  identity, not state, and is not serialized).
     *  @{ */
    void saveState(sim::StateWriter &w) const { walk(*this, w); }
    void loadState(sim::StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.pods(self.points_);
        t.value(self.windowStart_);
        t.value(self.windowFrom_);
    }

    std::string name_;
    std::vector<SeriesPoint> points_;
    sim::Time windowStart_ = 0;
    size_t windowFrom_ = 0;
};

} // namespace iocost::stat

#endif // IOCOST_STAT_TIME_SERIES_HH
