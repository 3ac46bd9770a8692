/**
 * @file
 * Unit tests for the log-linear histogram, including the relative-
 * error bound property that makes it usable for latency percentiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "sim/rng.hh"
#include "sim/state.hh"
#include "stat/histogram.hh"

namespace {

using iocost::stat::Histogram;

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.minValue(), 0);
    EXPECT_EQ(h.maxValue(), 0);
}

TEST(Histogram, SmallValuesExact)
{
    Histogram h;
    for (int v = 0; v <= 20; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 21u);
    EXPECT_EQ(h.minValue(), 0);
    EXPECT_EQ(h.maxValue(), 20);
    EXPECT_EQ(h.quantile(0.0), 0);
    // Small values land in exact unit buckets.
    EXPECT_EQ(h.quantile(0.5), 10);
    EXPECT_EQ(h.quantile(1.0), 20);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.record(123456);
    EXPECT_EQ(h.count(), 1u);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        const double rel =
            std::abs(static_cast<double>(h.quantile(q)) - 123456.0) /
            123456.0;
        EXPECT_LE(rel, 1.0 / 32.0) << "q=" << q;
    }
}

TEST(Histogram, MeanAndStddev)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_NEAR(h.stddev(), 8.1649658, 1e-5);
}

TEST(Histogram, NegativeClampsToZero)
{
    Histogram h;
    h.record(-50);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.minValue(), 0);
}

TEST(Histogram, QuantileNeverExceedsMax)
{
    Histogram h;
    h.record(1000000007);
    h.record(3);
    EXPECT_LE(h.quantile(1.0), 1000000007);
}

TEST(Histogram, BulkRecordMatchesRepeated)
{
    Histogram a, b;
    a.record(777, 1000);
    for (int i = 0; i < 1000; ++i)
        b.record(777);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
    EXPECT_EQ(a.total(), b.total());
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(42, 100);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.99), 0);
    h.record(7);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeCombinesCounts)
{
    Histogram a, b;
    a.record(100, 50);
    b.record(10000, 50);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    // Median sits between the two populations.
    EXPECT_GE(a.quantile(0.75), 9000);
    EXPECT_LE(a.quantile(0.25), 110);
}

TEST(Histogram, MergeResolutionMismatchPreservesExactMoments)
{
    // Split one population across histograms of different
    // resolutions, merge both into a third, and compare against
    // recording everything directly: counts and moments must be
    // exact (they are carried as running sums, not recomputed from
    // re-bucketed counts — re-bucketing through coarse bucket edges
    // would inflate total and sumSquares).
    iocost::sim::Rng rng(42);
    Histogram direct(5);
    Histogram coarse(3);
    Histogram fine(7);
    for (int i = 0; i < 4000; ++i) {
        const auto v =
            static_cast<int64_t>(rng.logNormal(250e3, 1.8));
        direct.record(v);
        (i % 2 ? coarse : fine).record(v);
    }

    Histogram merged(5);
    merged.merge(coarse);
    merged.merge(fine);

    EXPECT_EQ(merged.count(), direct.count());
    EXPECT_EQ(merged.total(), direct.total());
    EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
    // sumSquares accumulates in a different order; allow only
    // floating-point reassociation noise, no systematic inflation.
    EXPECT_NEAR(merged.stddev(), direct.stddev(),
                1e-9 * direct.stddev());
    EXPECT_EQ(merged.minValue(), direct.minValue());
    EXPECT_EQ(merged.maxValue(), direct.maxValue());

    // Quantiles go through re-bucketing and are approximate, but
    // must stay within the coarsest participant's error bound.
    for (double q : {0.5, 0.9, 0.99}) {
        const double exact =
            static_cast<double>(direct.quantile(q));
        const double est =
            static_cast<double>(merged.quantile(q));
        EXPECT_NEAR(est, exact, exact * 0.30 + 1) << "q=" << q;
    }
}

TEST(Histogram, MergeAcrossResolutionsBothDirections)
{
    Histogram source(6);
    for (int i = 1; i <= 1000; ++i)
        source.record(i * 997);

    for (unsigned bits : {3u, 5u, 7u}) {
        Histogram dst(bits);
        dst.merge(source);
        EXPECT_EQ(dst.count(), source.count()) << bits;
        EXPECT_EQ(dst.total(), source.total()) << bits;
        EXPECT_DOUBLE_EQ(dst.mean(), source.mean()) << bits;
        EXPECT_NEAR(dst.stddev(), source.stddev(),
                    1e-9 * source.stddev())
            << bits;
        EXPECT_EQ(dst.minValue(), source.minValue()) << bits;
        EXPECT_EQ(dst.maxValue(), source.maxValue()) << bits;
    }
}

TEST(Histogram, MergeEmptyIsNoOp)
{
    Histogram a(5);
    a.record(123, 7);
    const uint64_t count = a.count();
    const int64_t total = a.total();
    Histogram empty(3);
    a.merge(empty);
    EXPECT_EQ(a.count(), count);
    EXPECT_EQ(a.total(), total);

    // And merging into an empty histogram adopts min/max.
    Histogram b(3);
    b.merge(a);
    EXPECT_EQ(b.minValue(), a.minValue());
    EXPECT_EQ(b.maxValue(), a.maxValue());
    EXPECT_EQ(b.count(), a.count());
}

/**
 * The histogram as it was before it tracked its occupied bucket
 * range: the same log-linear buckets, with merge, reset and quantile
 * scanning every bucket. The reference the range-tracked paths must
 * match.
 */
struct FullRangeReference
{
    unsigned bits;
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    int64_t max = 0;

    explicit FullRangeReference(unsigned b)
        : bits(b), buckets((64u + 1u) << b, 0)
    {}

    unsigned
    index(uint64_t v) const
    {
        if (v == 0)
            return 0;
        const unsigned msb = 63u - std::countl_zero(v);
        const unsigned octave = msb < bits ? 0u : msb - bits + 1u;
        return std::min<unsigned>(
            (octave << bits) + static_cast<unsigned>(v >> octave),
            static_cast<unsigned>(buckets.size() - 1));
    }

    uint64_t
    upperEdge(unsigned i) const
    {
        const uint64_t sub = i & ((1u << bits) - 1u);
        return ((sub + 1u) << (i >> bits)) - 1u;
    }

    void
    record(int64_t v)
    {
        v = std::max<int64_t>(v, 0);
        ++buckets[index(static_cast<uint64_t>(v))];
        max = count == 0 ? v : std::max(max, v);
        ++count;
    }

    void
    merge(const FullRangeReference &o)
    {
        if (o.count == 0)
            return;
        for (unsigned i = 0; i < o.buckets.size(); ++i) {
            if (o.bits == bits)
                buckets[i] += o.buckets[i];
            else if (o.buckets[i] != 0)
                buckets[index(o.upperEdge(i))] += o.buckets[i];
        }
        max = count == 0 ? o.max : std::max(max, o.max);
        count += o.count;
    }

    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        count = 0;
        max = 0;
    }

    int64_t
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        const uint64_t rank = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::ceil(q * static_cast<double>(count))));
        uint64_t seen = 0;
        for (unsigned i = 0; i < buckets.size(); ++i) {
            seen += buckets[i];
            if (seen >= rank)
                return std::min(static_cast<int64_t>(upperEdge(i)),
                                max);
        }
        return max;
    }
};

/** One histogram and its full-range reference, driven in step. */
struct Paired
{
    Histogram h;
    FullRangeReference ref;

    explicit Paired(unsigned bits) : h(bits), ref(bits) {}

    void
    record(int64_t v)
    {
        h.record(v);
        ref.record(v);
    }

    void
    merge(const Paired &o)
    {
        h.merge(o.h);
        ref.merge(o.ref);
    }

    void
    reset()
    {
        h.reset();
        ref.reset();
    }

    void
    expectSame(const char *where) const
    {
        ASSERT_EQ(h.count(), ref.count) << where;
        for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                         0.99, 0.999, 1.0})
            ASSERT_EQ(h.quantile(q), ref.quantile(q))
                << where << " q=" << q;
    }
};

/** Latency-like values over many octaves, with some zeros. */
int64_t
drawValue(iocost::sim::Rng &rng)
{
    if (rng.chance(0.02))
        return 0;
    return static_cast<int64_t>(rng.logNormal(200e3, 2.5));
}

iocost::sim::StateImage
image(const Histogram &h)
{
    iocost::sim::StateWriter w;
    h.saveState(w);
    return std::move(w).finish();
}

TEST(Histogram, RangeTrackedOpsMatchFullRangeReference)
{
    // Random record / merge / reset sequences at three resolutions,
    // merged across resolutions too: after every step the quantiles
    // equal those of a histogram that scans every bucket.
    iocost::sim::Rng rng(77);
    const unsigned kBits[] = {3u, 5u, 7u};
    for (unsigned acc_bits : kBits) {
        Paired acc(acc_bits);
        for (int round = 0; round < 60; ++round) {
            Paired part(kBits[rng.below(3)]);
            const int n = static_cast<int>(rng.below(200));
            for (int i = 0; i < n; ++i)
                part.record(drawValue(rng));
            part.expectSame("part");
            acc.merge(part);
            acc.expectSame("merge");
            if (rng.chance(0.2)) {
                acc.reset();
                acc.expectSame("reset");
            }
            if (rng.chance(0.3)) {
                acc.record(drawValue(rng));
                acc.expectSame("record");
            }
        }
    }
}

TEST(Histogram, ResetClearsEveryBucketOfACrossResolutionMerge)
{
    // A coarse bucket re-buckets at its upper edge, above max_'s own
    // bucket in the finer target. A reset that derived its range
    // from min/max would leave that count behind, and the image of
    // the reset histogram would differ from a fresh one.
    Histogram coarse(2);
    coarse.record(1000);
    Histogram fine(7);
    fine.merge(coarse);
    EXPECT_EQ(fine.maxValue(), 1000);
    fine.reset();
    EXPECT_EQ(image(fine).bytes, image(Histogram(7)).bytes);

    // Merging it onward carries nothing stale either.
    Histogram onward(7);
    onward.merge(fine);
    onward.record(5);
    Histogram direct(7);
    direct.record(5);
    EXPECT_EQ(image(onward).bytes, image(direct).bytes);
}

TEST(Histogram, SnapshotRoundTripKeepsImageAndRange)
{
    iocost::sim::Rng rng(5);
    Histogram h(5);
    Histogram direct(5);
    for (int i = 0; i < 500; ++i)
        h.record(drawValue(rng));
    h.reset();
    // Recorded through merges after a reset: the image is the one a
    // histogram recording the same values directly would write, so
    // neither the window a reset keeps nor the merge order reaches
    // the tape.
    for (int part = 0; part < 5; ++part) {
        Histogram p(5);
        for (int i = 0; i < 100; ++i) {
            const int64_t v = drawValue(rng);
            p.record(v);
            direct.record(v);
        }
        h.merge(p);
    }
    const iocost::sim::StateImage img = image(h);
    EXPECT_EQ(img.bytes, image(direct).bytes);

    // A restored histogram takes its range from the tape:
    // quantiles, merges and a reset behave as on the original.
    Histogram back(5);
    back.record(1); // state the load must replace
    iocost::sim::StateReader r(img);
    back.loadState(r);
    EXPECT_EQ(image(back).bytes, img.bytes);
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(back.quantile(q), h.quantile(q)) << q;
    Histogram sum(5);
    sum.merge(back);
    EXPECT_EQ(image(sum).bytes, img.bytes);
    back.reset();
    EXPECT_EQ(image(back).bytes, image(Histogram(5)).bytes);
}

/** Latency-like values, plus now and then one in the top octave a
 *  non-negative int64 reaches ([2^62, 2^63)). */
int64_t
drawWideValue(iocost::sim::Rng &rng, bool top)
{
    if (top)
        return (int64_t{1} << 62) +
               static_cast<int64_t>(rng.below(uint64_t{1} << 61));
    return drawValue(rng);
}

TEST(Histogram, WindowedOpsMatchFullRangeReferenceUpToTheTopOctave)
{
    // As above, at four resolutions, with top-octave values mixed
    // in: the window widens from wherever it stands to the far end
    // of the range, on records and on same- and cross-resolution
    // merges alike. One top value per accumulation keeps the int64
    // total from overflowing.
    iocost::sim::Rng rng(2024);
    const unsigned kBits[] = {2u, 3u, 5u, 7u};
    for (unsigned acc_bits : kBits) {
        Paired acc(acc_bits);
        bool acc_top = false;
        size_t capacity = 0;
        for (int round = 0; round < 80; ++round) {
            Paired part(kBits[rng.below(4)]);
            const bool top = !acc_top && rng.chance(0.15);
            const int n = static_cast<int>(rng.below(150));
            for (int i = 0; i < n; ++i)
                part.record(drawValue(rng));
            if (top)
                part.record(drawWideValue(rng, true));
            part.expectSame("part");
            acc.merge(part);
            acc_top = acc_top || top;
            acc.expectSame("merge");
            if (rng.chance(0.2)) {
                acc.reset();
                acc_top = false;
                acc.expectSame("reset");
            }
            if (rng.chance(0.3)) {
                const bool rec_top = !acc_top && rng.chance(0.2);
                acc.record(drawWideValue(rng, rec_top));
                acc_top = acc_top || rec_top;
                acc.expectSame("record");
            }
            // The window only grows, in whole octaves, within the
            // full range.
            const size_t cap = acc.h.bucketCapacity();
            ASSERT_GE(cap, capacity);
            ASSERT_EQ(cap % (size_t{1} << acc_bits), 0u);
            ASSERT_LE(cap, acc.ref.buckets.size());
            capacity = cap;
        }
    }
}

TEST(Histogram, NeverRecordedHoldsNoBucketStorage)
{
    Histogram h;
    EXPECT_EQ(h.bucketCapacity(), 0u);
    h.merge(Histogram(3));
    h.reset(7);
    EXPECT_EQ(h.bucketCapacity(), 0u);
    Histogram copy = h;
    EXPECT_EQ(copy.bucketCapacity(), 0u);

    // Loading an empty image allocates nothing either.
    Histogram loaded;
    iocost::sim::StateImage img = image(Histogram());
    iocost::sim::StateReader r(img);
    loaded.loadState(r);
    EXPECT_EQ(loaded.bucketCapacity(), 0u);

    // The first record takes one octave.
    h.record(123456);
    EXPECT_EQ(h.bucketCapacity(), 32u);
}

TEST(Histogram, ResetKeepsTheWindow)
{
    iocost::sim::Rng rng(9);
    Histogram h;
    std::vector<int64_t> values;
    for (int i = 0; i < 400; ++i)
        values.push_back(drawValue(rng));
    for (int64_t v : values)
        h.record(v);
    const size_t cap = h.bucketCapacity();
    EXPECT_GT(cap, 32u);
    h.reset();
    EXPECT_EQ(h.bucketCapacity(), cap);
    // The next period's population fits the same window.
    for (int64_t v : values)
        h.record(v);
    EXPECT_EQ(h.bucketCapacity(), cap);
    EXPECT_EQ(h.count(), values.size());
}

TEST(Histogram, EqualCountsInDifferentWindowsGiveEqualTapes)
{
    // Same counts, three windows: grown by a wide population then
    // reset, reserved over the full range, and fitted to one value.
    Histogram wide;
    for (int64_t v = 1; v < (int64_t{1} << 40); v *= 3)
        wide.record(v);
    wide.reset();
    Histogram full;
    full.reserveFullRange();
    Histogram tight;
    for (Histogram *h : {&wide, &full, &tight}) {
        h->record(5000, 3);
        h->record(5100);
    }
    EXPECT_GT(wide.bucketCapacity(), tight.bucketCapacity());
    EXPECT_EQ(full.bucketCapacity(), 65u * 32u);
    EXPECT_EQ(image(wide).bytes, image(tight).bytes);
    EXPECT_EQ(image(full).bytes, image(tight).bytes);

    // The tape holds the occupied range, not the window. 5000 and
    // 5100 share bucket 275 (octave 8, sub-bucket 19) and 9000 lands
    // in bucket 305 (octave 9, sub-bucket 17), so the range grows by
    // 30 counts.
    Histogram wider = tight;
    wider.record(9000);
    EXPECT_EQ(image(wider).byteSize() - image(tight).byteSize(),
              30u * sizeof(uint64_t));
}

TEST(Histogram, RestoreThenSnapshotGivesTheSameBytes)
{
    // Into a window that lies wholly above the image's range, one
    // that overlaps it, and none at all: the load zeroes what the
    // destination held, widens to the image's range, and writes the
    // same tape back.
    iocost::sim::Rng rng(31);
    Histogram src;
    for (int i = 0; i < 300; ++i)
        src.record(drawValue(rng) / 1000);
    const iocost::sim::StateImage img = image(src);

    Histogram above;
    above.record(int64_t{1} << 50);
    Histogram overlap;
    for (int i = 0; i < 300; ++i)
        overlap.record(drawValue(rng));
    Histogram none;
    for (Histogram *dst : {&above, &overlap, &none}) {
        iocost::sim::StateReader r(img);
        dst->loadState(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(image(*dst).bytes, img.bytes);
        for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
            EXPECT_EQ(dst->quantile(q), src.quantile(q)) << q;
        EXPECT_EQ(dst->mean(), src.mean());
    }
}

/**
 * Property: for any population, every quantile estimate is within
 * the structural relative error bound (one sub-bucket width).
 */
class HistogramErrorBound : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(HistogramErrorBound, QuantilesWithinRelativeError)
{
    iocost::sim::Rng rng(GetParam());
    Histogram h;
    std::vector<int64_t> values;
    const int n = 5000;
    values.reserve(n);
    for (int i = 0; i < n; ++i) {
        // Latency-like values spanning several decades.
        const auto v = static_cast<int64_t>(
            rng.logNormal(100e3, 1.5));
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
        const auto rank = static_cast<size_t>(
            std::min<double>(n - 1, std::ceil(q * n)));
        const double exact =
            static_cast<double>(values[rank > 0 ? rank - 1 : 0]);
        const double est = static_cast<double>(h.quantile(q));
        if (exact < 64)
            continue; // exact region
        EXPECT_NEAR(est, exact, exact * (2.0 / 32.0) + 1)
            << "q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramErrorBound,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
