/**
 * @file
 * Log-linear histogram for latency percentile tracking.
 *
 * Buckets are organized HDR-histogram style: values are grouped by
 * their power-of-two magnitude, and each magnitude is split into a
 * fixed number of linear sub-buckets, bounding relative quantile error
 * by 1/subBuckets. Recording is O(1). The histogram tracks the range
 * of buckets it has filled, so percentile queries, merges and resets
 * cost O(buckets in that range) rather than O(all buckets) — 2,080
 * at the default resolution, while a latency population spans a few
 * octaves. Storage follows the same range: the histogram holds a
 * window of whole octaves around the buckets it has touched, empty
 * until the first record, and a snapshot writes only the occupied
 * range. This mirrors what the kernel's iocost implementation
 * does with its completion-latency percentile estimation, and is the
 * backbone of every latency statistic in the simulator.
 */

#ifndef IOCOST_STAT_HISTOGRAM_HH
#define IOCOST_STAT_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/state.hh"
#include "sim/time.hh"
#include "stat/window.hh"

namespace iocost::stat {

/**
 * Log-linear histogram over non-negative 64-bit values whose bucket
 * storage is a window of whole octaves: empty until the first
 * record, widened only when a value lands outside it, and kept by
 * reset() so a per-period histogram stops allocating once its
 * window covers the population.
 */
class Histogram
{
  public:
    /**
     * @param sub_bucket_bits Linear sub-buckets per octave as a power
     *        of two (default 5 -> 32 sub-buckets, ~3% relative error).
     */
    explicit Histogram(unsigned sub_bucket_bits = 5);

    /** Record one observation. Negative values clamp to zero. */
    void record(int64_t value) { record(value, 1); }

    /**
     * Record @p count identical observations. Inline: this sits on
     * the per-bio completion path (several records per IO).
     */
    void
    record(int64_t value, uint64_t count)
    {
        if (count == 0)
            return;
        if (value < 0)
            value = 0;
        const unsigned idx = bucketIndex(static_cast<uint64_t>(value));
        // One unsigned compare covers both sides of the window.
        if (idx - base_ >= buckets_.size()) [[unlikely]]
            widen(idx, idx + 1);
        buckets_[idx - base_] += count;
        lo_ = std::min(lo_, idx);
        hi_ = std::max(hi_, idx + 1);
        if (count_ == 0) {
            min_ = value;
            max_ = value;
        } else {
            min_ = std::min(min_, value);
            max_ = std::max(max_, value);
        }
        count_ += count;
        total_ += value * static_cast<int64_t>(count);
        sumSquares_ += static_cast<unsigned __int128>(value) *
                       static_cast<unsigned __int128>(value) *
                       count;
    }

    /** Number of recorded observations. */
    uint64_t count() const { return count_; }

    /** Sum of recorded values (saturating in practice, not checked). */
    int64_t total() const { return total_; }

    /** Arithmetic mean, 0 when empty. */
    double mean() const;

    /** Standard deviation (population), 0 when empty. */
    double stddev() const;

    /** Minimum recorded value, 0 when empty. */
    int64_t minValue() const { return count_ ? min_ : 0; }

    /** Maximum recorded value, 0 when empty. */
    int64_t maxValue() const { return count_ ? max_ : 0; }

    /**
     * Value at quantile @p q in [0, 1]; e.g. q = 0.5 is the median.
     * Returns the representative (upper-edge) value of the bucket
     * containing the quantile. 0 when empty.
     */
    int64_t quantile(double q) const;

    /** Convenience: value at percentile p in [0, 100]. */
    int64_t percentile(double p) const { return quantile(p / 100.0); }

    /** Remove all observations (window start is unchanged). The
     *  bucket window is capacity, not state, and stays. */
    void reset();

    /**
     * Remove all observations and start a new measurement window at
     * @p now (the common window convention, stat/window.hh).
     */
    void
    reset(sim::Time now)
    {
        reset();
        windowStart_ = now;
    }

    /** Summarize the current window as of @p now. */
    WindowSnapshot snapshot(sim::Time now) const;

    /**
     * Merge another histogram's observations into this one.
     *
     * All state — buckets, extrema, and the moments backing mean()
     * and stddev() — is held in integers, so merging any partition
     * of the same observations in any order yields bit-identical
     * results. This is what lets the fleet engine fold per-host
     * results into per-shard accumulators and still produce
     * byte-identical aggregates at every shard count.
     */
    void merge(const Histogram &other);

    /** Widen the bucket window to the whole value range, so that no
     *  later record, merge or load allocates. */
    void reserveFullRange() { widen(0, fullRange()); }

    /** Buckets of storage the window holds (0 until the first
     *  record); never less than the occupied range. */
    size_t bucketCapacity() const { return buckets_.size(); }

    /**
     * @name Snapshot support (the unified window-API companion to
     * reset(now)/snapshot(now)): all integer state, the buckets as
     * their occupied range, so a restored histogram is bit-identical
     * to the saved one.
     * @{
     */
    void saveState(sim::StateWriter &w) const { walk(*this, w); }
    void loadState(sim::StateReader &r) { walk(*this, r); }
    /** @} */

  private:
    /**
     * The tape holds the occupied range [lo_, hi_) and its counts,
     * never the window around it: equal counts give equal bytes
     * whatever capacity either side has grown to.
     */
    template <typename Self, typename Tape>
    static void
    walk(Self &self, Tape &t)
    {
        t.same(self.subBits_, "snapshot histogram resolution differs");
        if constexpr (Tape::kLoading)
            self.reset();
        t.value(self.lo_);
        t.value(self.hi_);
        const unsigned n = self.lo_ < self.hi_ ? self.hi_ - self.lo_ : 0;
        if constexpr (Tape::kLoading) {
            if (n > 0)
                self.ensure(self.lo_, self.hi_);
        }
        t.pods(n > 0 ? &self.buckets_[self.lo_ - self.base_] : nullptr,
               n);
        t.value(self.count_);
        t.value(self.total_);
        t.value(self.sumSquares_);
        t.value(self.min_);
        t.value(self.max_);
        t.value(self.windowStart_);
    }

    unsigned
    bucketIndex(uint64_t value) const
    {
        // Octave o scales the value down so it fits in one
        // sub-bucket span; values below 2^subBits are exact (o = 0).
        // The relative quantization error is bounded by
        // 2^(1 - subBits).
        if (value == 0)
            return 0;
        const unsigned msb = 63u - std::countl_zero(value);
        const unsigned octave =
            msb < subBits_ ? 0u : msb - subBits_ + 1u;
        const auto sub = static_cast<unsigned>(value >> octave);
        return (octave << subBits_) + sub;
    }

    uint64_t bucketUpperEdge(unsigned index) const;

    /** Buckets covering every uint64 value: 64 octaves plus the
     *  exact ones. bucketIndex() never reaches past it. */
    unsigned fullRange() const { return (64u + 1u) << subBits_; }

    /** Make the window cover bucket indices [lo, hi). */
    void
    ensure(unsigned lo, unsigned hi)
    {
        if (lo < base_ || hi - base_ > buckets_.size())
            widen(lo, hi);
    }

    /** The cold path: grow the window, in whole octaves, to cover
     *  [lo, hi) as well as what it held. */
    [[gnu::cold]] void widen(unsigned lo, unsigned hi);

    unsigned subBits_;
    /** The window: buckets_[i] counts absolute bucket base_ + i. */
    unsigned base_ = 0;
    std::vector<uint64_t> buckets_;
    /**
     * Every nonzero bucket lies in [lo_, hi_), and the buckets at
     * lo_ and hi_ - 1 are nonzero; lo_ = fullRange() and hi_ = 0
     * when empty. Tracked explicitly, not derived from min_/max_: a
     * merge across resolutions re-buckets counts at source bucket
     * upper edges, which can land above max_'s bucket.
     */
    unsigned lo_ = 0;
    unsigned hi_ = 0;
    uint64_t count_ = 0;
    int64_t total_ = 0;
    /**
     * Sum of squared values in exact integer arithmetic. A double
     * here would make stddev() depend on accumulation order and
     * break bit-identical shard merges; 128 bits hold the square of
     * any realistic latency (2^45 ns) times 2^38 observations.
     */
    unsigned __int128 sumSquares_ = 0;
    int64_t min_ = 0;
    int64_t max_ = 0;
    sim::Time windowStart_ = 0;
};

} // namespace iocost::stat

#endif // IOCOST_STAT_HISTOGRAM_HH
