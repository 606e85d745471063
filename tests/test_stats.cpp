/**
 * @file
 * Tests for the statistics accumulators: streaming moments, percentile
 * queries, CDF extraction, windowed samples, and correlation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/stats.hpp"

namespace erms {
namespace {

TEST(StreamingStats, EmptyIsZero)
{
    StreamingStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, MeanVarianceMinMax)
{
    StreamingStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance: sum of squared deviations 32 over n - 1 = 7.
    EXPECT_DOUBLE_EQ(s.variance(), 32.0 / 7.0);
    EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(32.0 / 7.0));
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, VarianceUsesSampleDenominator)
{
    // Regression: variance() divided m2 by n (population variance)
    // while merge() and the profiling-fit callers assume the sample
    // (n - 1) convention. {1, 2} has sample variance 0.5, not 0.25.
    StreamingStats s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.5);
}

TEST(StreamingStats, MergeEqualsCombinedStream)
{
    StreamingStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty)
{
    StreamingStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(SampleSet, QuantilesOfKnownDistribution)
{
    SampleSet set;
    for (int i = 1; i <= 100; ++i)
        set.add(static_cast<double>(i));
    EXPECT_NEAR(set.quantile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(set.quantile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(set.p50(), 50.5, 1e-9);
    EXPECT_NEAR(set.p95(), 95.05, 1e-9);
    EXPECT_NEAR(set.p99(), 99.01, 1e-9);
}

TEST(SampleSet, SingleSample)
{
    SampleSet set;
    set.add(42.0);
    EXPECT_DOUBLE_EQ(set.p95(), 42.0);
    EXPECT_DOUBLE_EQ(set.mean(), 42.0);
    EXPECT_DOUBLE_EQ(set.min(), 42.0);
    EXPECT_DOUBLE_EQ(set.max(), 42.0);
}

TEST(SampleSet, EmptyReturnsZero)
{
    SampleSet set;
    EXPECT_DOUBLE_EQ(set.p95(), 0.0);
    EXPECT_DOUBLE_EQ(set.mean(), 0.0);
    EXPECT_DOUBLE_EQ(set.fractionAbove(1.0), 0.0);
}

TEST(SampleSet, InterleavedAddAndQuery)
{
    SampleSet set;
    set.add(10.0);
    EXPECT_DOUBLE_EQ(set.max(), 10.0);
    set.add(20.0);
    EXPECT_DOUBLE_EQ(set.max(), 20.0); // re-sort after insert
    set.add(5.0);
    EXPECT_DOUBLE_EQ(set.min(), 5.0);
}

TEST(SampleSet, FractionAboveIsStrict)
{
    SampleSet set;
    set.addAll({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(set.fractionAbove(2.0), 0.5);
    EXPECT_DOUBLE_EQ(set.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(set.fractionAbove(4.0), 0.0);
}

TEST(SampleSet, CdfAtPoints)
{
    SampleSet set;
    set.addAll({1.0, 2.0, 3.0, 4.0});
    const auto cdf = set.cdfAt({0.5, 2.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.5);
    EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(SampleSet, CdfSeriesDeduplicates)
{
    SampleSet set;
    set.addAll({1.0, 1.0, 2.0});
    const auto series = set.cdfSeries();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0].first, 1.0);
    EXPECT_NEAR(series[0].second, 2.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(series[1].first, 2.0);
    EXPECT_DOUBLE_EQ(series[1].second, 1.0);
}

TEST(SampleSet, ClearResets)
{
    SampleSet set;
    set.add(1.0);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_DOUBLE_EQ(set.p95(), 0.0);
}

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** The documented quantile formula over an already sorted copy. */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/**
 * n non-negative finite samples: mostly latency-like values, with
 * duplicates, +0.0, subnormals, DBL_MAX and arbitrary finite bit
 * patterns mixed in, so keys differ in every byte.
 */
std::vector<double>
radixCandidates(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::vector<double> xs;
    xs.reserve(n);
    xs.push_back(+0.0);
    xs.push_back(DBL_MAX);
    xs.push_back(std::numeric_limits<double>::denorm_min());
    while (xs.size() < n) {
        const std::uint64_t r = gen();
        switch (r % 8) {
          case 0:
            xs.push_back(xs[(r >> 8) % xs.size()]); // duplicate
            break;
          case 1:
            xs.push_back(+0.0);
            break;
          case 2: // subnormal
            xs.push_back(std::bit_cast<double>((r >> 12) | 1u));
            break;
          case 3: // any finite non-negative value, DBL_MAX included
            xs.push_back(
                std::bit_cast<double>((r >> 1) % (bitsOf(DBL_MAX) + 1)));
            break;
          default: // latency in ms, 1 us resolution
            xs.push_back(static_cast<double>((r >> 8) % 2000000) / 1000.0);
            break;
        }
    }
    std::shuffle(xs.begin(), xs.end(), gen);
    return xs;
}

/** p95() then the other queries must read exactly what a std::sort-ed
 *  copy gives, the buffer included, whichever sort SampleSet picks. */
void
expectSortedBitsMatch(const std::vector<double> &xs, const char *what)
{
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double x : sorted)
        sum += x;
    const double mean = sum / static_cast<double>(sorted.size());

    SampleSet set;
    set.addAll(xs);
    EXPECT_EQ(bitsOf(set.p95()), bitsOf(sortedQuantile(sorted, 0.95)))
        << what << " n=" << xs.size();
    // At kSelectThreshold and above p95() selects instead of sorting;
    // min() sorts there (std::sort) and is a no-op on a sorted buffer.
    EXPECT_EQ(bitsOf(set.min()), bitsOf(sorted.front()));
    ASSERT_EQ(set.samples().size(), sorted.size());
    EXPECT_EQ(std::memcmp(set.samples().data(), sorted.data(),
                          sorted.size() * sizeof(double)),
              0)
        << what << " n=" << xs.size();
    EXPECT_EQ(bitsOf(set.p50()), bitsOf(sortedQuantile(sorted, 0.50)))
        << what << " n=" << xs.size();
    EXPECT_EQ(bitsOf(set.mean()), bitsOf(mean))
        << what << " n=" << xs.size();
    EXPECT_EQ(bitsOf(set.max()), bitsOf(sorted.back()));
}

TEST(SampleSet, RadixSortedSetsAreBitIdenticalToStdSort)
{
    // Sizes straddle the radix range [kRadixMin = 128, 4096) at both
    // ends, plus the 2,900-sample average of a per-minute latency set.
    for (const std::size_t n :
         {127u, 128u, 129u, 255u, 256u, 257u, 2900u, 4095u, 4096u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            expectSortedBitsMatch(radixCandidates(n, seed * 7919 + n),
                                  "non-negative finite");
    }
}

TEST(SampleSet, SignedOrNonFiniteSetsFallBackToStdSort)
{
    // One -0.0, negative or +inf makes the bit order wrong or the value
    // non-finite: such sets must still read as std::sort orders them.
    const double odd[] = {-0.0, -1.5, -std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::infinity()};
    for (const std::size_t n : {128u, 256u, 2900u, 4095u}) {
        for (const double x : odd) {
            std::vector<double> xs = radixCandidates(n, n);
            xs[n / 2] = x;
            expectSortedBitsMatch(xs, "fallback");
        }
    }
}

TEST(WindowedSamples, SeparatesWindows)
{
    WindowedSamples windows;
    windows.add(0, 1.0);
    windows.add(0, 2.0);
    windows.add(3, 10.0);
    EXPECT_EQ(windows.windowCount(), 2u);
    EXPECT_EQ(windows.window(0).count(), 2u);
    EXPECT_EQ(windows.window(3).count(), 1u);
    EXPECT_EQ(windows.window(1).count(), 0u); // absent window
    const auto indices = windows.windowIndices();
    ASSERT_EQ(indices.size(), 2u);
    EXPECT_EQ(indices[0], 0u);
    EXPECT_EQ(indices[1], 3u);
}

TEST(Correlation, PerfectPositiveAndNegative)
{
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{2, 4, 6, 8, 10};
    std::vector<double> z{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-9);
    EXPECT_NEAR(pearsonCorrelation(x, z), -1.0, 1e-9);
}

TEST(Correlation, DegenerateInputs)
{
    EXPECT_DOUBLE_EQ(pearsonCorrelation({1.0}, {2.0}), 0.0);
    EXPECT_DOUBLE_EQ(pearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
    // Constant series has zero variance.
    EXPECT_DOUBLE_EQ(pearsonCorrelation({3, 3, 3}, {1, 2, 3}), 0.0);
}

} // namespace
} // namespace erms
