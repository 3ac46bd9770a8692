#include "stat/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace iocost::stat {

Histogram::Histogram(unsigned sub_bucket_bits)
    : subBits_(sub_bucket_bits), lo_(fullRange())
{}

void
Histogram::widen(unsigned lo, unsigned hi)
{
    // Octave boundaries: a latency population moves through a few
    // octaves, so the window settles after a handful of widenings.
    // fullRange() is whole octaves, so rounding up stays inside it.
    const unsigned mask = (1u << subBits_) - 1u;
    unsigned base = lo & ~mask;
    unsigned end = (hi + mask) & ~mask;
    if (buckets_.empty()) {
        buckets_.assign(end - base, 0);
    } else {
        base = std::min(base, base_);
        end = std::max(end,
                       base_ + static_cast<unsigned>(buckets_.size()));
        std::vector<uint64_t> grown(end - base, 0);
        std::copy(buckets_.begin(), buckets_.end(),
                  grown.begin() + (base_ - base));
        buckets_ = std::move(grown);
    }
    base_ = base;
}

uint64_t
Histogram::bucketUpperEdge(unsigned index) const
{
    const unsigned sub_count = 1u << subBits_;
    const unsigned octave = index >> subBits_;
    const uint64_t sub = index & (sub_count - 1u);
    return ((sub + 1u) << octave) - 1u;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(total_) / static_cast<double>(count_);
}

double
Histogram::stddev() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double var = static_cast<double>(sumSquares_) /
                           static_cast<double>(count_) -
                       m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

int64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target observation (1-based, ceil).
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    const uint64_t *counts = buckets_.data() + (lo_ - base_);
    uint64_t seen = 0;
    for (unsigned i = lo_; i < hi_; ++i) {
        seen += *counts++;
        if (seen >= rank) {
            const int64_t edge =
                static_cast<int64_t>(bucketUpperEdge(i));
            return std::min(edge, max_);
        }
    }
    return max_;
}

WindowSnapshot
Histogram::snapshot(sim::Time now) const
{
    WindowSnapshot s;
    s.windowStart = windowStart_;
    s.windowEnd = now;
    s.count = count_;
    const sim::Time elapsed = now - windowStart_;
    if (elapsed > 0) {
        s.perSecond = static_cast<double>(count_) /
                      sim::toSeconds(elapsed);
    }
    s.mean = mean();
    s.p50 = quantile(0.50);
    s.p99 = quantile(0.99);
    return s;
}

void
Histogram::reset()
{
    if (lo_ < hi_) {
        std::fill(buckets_.begin() + (lo_ - base_),
                  buckets_.begin() + (hi_ - base_), 0);
    }
    lo_ = fullRange();
    hi_ = 0;
    count_ = 0;
    total_ = 0;
    sumSquares_ = 0;
    min_ = 0;
    max_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (other.subBits_ == subBits_) {
        ensure(other.lo_, other.hi_);
        for (unsigned i = other.lo_; i < other.hi_; ++i)
            buckets_[i - base_] += other.buckets_[i - other.base_];
        lo_ = std::min(lo_, other.lo_);
        hi_ = std::max(hi_, other.hi_);
    } else {
        // Differing resolutions: re-bucket counts at each source
        // bucket's representative (upper-edge) value. Quantiles
        // degrade to the coarser resolution; the exact moments are
        // carried over below — re-*recording* the representative
        // values here would inflate total_/sumSquares_ (every
        // observation rounds up to its bucket edge) and bias
        // mean/stddev after fleet aggregation. Edges rise with the
        // source index, so the first and last occupied source
        // buckets bound the target range.
        ensure(bucketIndex(other.bucketUpperEdge(other.lo_)),
               bucketIndex(other.bucketUpperEdge(other.hi_ - 1)) + 1);
        for (unsigned i = other.lo_; i < other.hi_; ++i) {
            const uint64_t n = other.buckets_[i - other.base_];
            if (!n)
                continue;
            const unsigned idx = bucketIndex(other.bucketUpperEdge(i));
            buckets_[idx - base_] += n;
            lo_ = std::min(lo_, idx);
            hi_ = std::max(hi_, idx + 1);
        }
    }
    // Moments and extrema merge exactly regardless of resolution.
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    total_ += other.total_;
    sumSquares_ += other.sumSquares_;
}

} // namespace iocost::stat
