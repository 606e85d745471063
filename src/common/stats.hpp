/**
 * @file
 * Statistics accumulators used across the simulator, profiler and
 * benchmark harnesses: streaming mean/variance, exact percentile
 * estimation over stored samples, windowed (per-minute) aggregation, and
 * empirical CDF extraction for the paper's distribution figures.
 */

#ifndef ERMS_COMMON_STATS_HPP
#define ERMS_COMMON_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace erms {

/**
 * Streaming first/second moment accumulator (Welford). Constant memory;
 * used where only mean/variance are needed (e.g. Rhythm's contribution
 * statistics).
 */
class StreamingStats
{
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /**
     * Sample (unbiased, n-1 denominator) variance; 0 when fewer than
     * two samples. The sample convention matches merge(), which
     * implements Chan's combination of the centered second moments, and
     * matches the callers (profiling fits, Rhythm's contribution
     * statistics) that treat these accumulators as estimates from a
     * finite observation window rather than a full population.
     * Clamped at zero: cancellation can drive the accumulated second
     * moment slightly negative for near-constant streams, which would
     * otherwise surface as a negative variance and a NaN stddev.
     */
    double variance() const;

    /** Standard deviation derived from variance(). */
    double stddev() const;

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /** Merge another accumulator into this one (parallel aggregation). */
    void merge(const StreamingStats &other);

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Exact sample store with percentile queries. Samples are buffered and
 * sorted lazily on the first quantile query after an insert.
 *
 * The sort is std::sort, except for sets of kRadixMin to
 * kSelectThreshold - 1 samples that are all non-negative and finite
 * (sign bit clear, exponent not all ones) — the per-minute latency sets.
 * Those are LSD radix-sorted by bit pattern, which for such values
 * yields exactly std::sort's sequence, so every query reads the same
 * bits either way. -0.0, negatives, infinities and NaN keep std::sort.
 */
class SampleSet
{
  public:
    void add(double x);
    void addAll(const std::vector<double> &xs);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Quantile in [0, 1] using linear interpolation between order
     * statistics. quantile(0.95) is the paper's P95.
     *
     * Large unsorted sets answer via an O(n) selection pass rather
     * than a full sort; the value is bit-identical either way, but the
     * buffer may be left partially reordered (see samples()).
     */
    double quantile(double q) const;

    /** Convenience alias for the paper's tail metrics. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    double mean() const;
    double min() const;
    double max() const;

    /** Fraction of samples strictly greater than the threshold. */
    double fractionAbove(double threshold) const;

    /**
     * Empirical CDF evaluated at the given points:
     * result[i] = P(X <= points[i]).
     */
    std::vector<double> cdfAt(const std::vector<double> &points) const;

    /**
     * (value, cumulative probability) pairs over all distinct sorted
     * samples — the series plotted in the paper's CDF figures.
     */
    std::vector<std::pair<double, double>> cdfSeries() const;

    /** Raw sample buffer. Order is unspecified once any query has run
     *  (queries may sort or partially reorder the buffer in place);
     *  only the multiset of values is stable. */
    const std::vector<double> &samples() const { return samples_; }
    void clear();

  private:
    /** Below this size a quantile query just sorts: repeated queries
     *  on small (controller/test-sized) sets then hit the sorted fast
     *  path instead of re-selecting each time. */
    static constexpr std::size_t kSelectThreshold = 4096;

    /** Smallest set the radix sort takes. Measured on latency-like
     *  doubles (GCC 12 -O3, 4-vCPU VM): radix/std::sort time is 2.0 at
     *  64 samples, 0.89 at 96, 0.63 at 128 and 0.25 at 2,900. */
    static constexpr std::size_t kRadixMin = 128;

    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Time-windowed sample aggregation keyed by an integral window index
 * (the paper aggregates per minute: latency samples and per-container
 * call counts within the jth minute form one profiling data point).
 */
class WindowedSamples
{
  public:
    /** Add a sample into the window with the given index. */
    void add(std::uint64_t window, double x);

    /** Number of distinct windows with at least one sample. */
    std::size_t windowCount() const { return windows_.size(); }

    /** Sorted list of window indices present. */
    std::vector<std::uint64_t> windowIndices() const;

    /** Sample set of one window; empty set if absent. */
    const SampleSet &window(std::uint64_t index) const;

  private:
    std::vector<std::pair<std::uint64_t, SampleSet>> windows_;
    static const SampleSet kEmpty;
};

/** Pearson correlation coefficient; 0 when undefined. */
double pearsonCorrelation(const std::vector<double> &x,
                          const std::vector<double> &y);

} // namespace erms

#endif // ERMS_COMMON_STATS_HPP
