/**
 * @file
 * Prometheus-style metrics primitives for the online telemetry
 * subsystem: monotonic counters (sharded atomics so concurrent runner
 * workers can share one registry without contention), gauges, and
 * fixed-boundary histograms with bucket-interpolated quantile
 * estimation — the information model of the paper's §5 monitoring loop
 * (Prometheus counters + Jaeger latency spans scraped on an interval),
 * as opposed to the oracle statistics the simulator keeps internally.
 *
 * Determinism contract: recording into metrics never draws from any
 * RNG and never schedules events, so attaching telemetry to a
 * simulation cannot change its request-level behaviour (pinned by the
 * TelemetryTransparency property suite).
 */

#ifndef ERMS_TELEMETRY_REGISTRY_HPP
#define ERMS_TELEMETRY_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace erms::telemetry {

/** Sorted (key, value) label pairs identifying one series. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Kind of one metric series. */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * Monotonic event counter. Increments land on one of a few
 * cache-line-padded atomic shards picked by thread identity, so
 * parallel-runner workers sharing a registry never serialize on a
 * single hot cache line; value() sums the shards.
 */
class Counter
{
  public:
    static constexpr std::size_t kShards = 8;

    void add(std::uint64_t n = 1);
    void inc() { add(1); }

    std::uint64_t value() const;

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };
    Shard shards_[kShards];
};

/** Last-write-wins instantaneous value (queue depth, utilization). */
class Gauge
{
  public:
    void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
    double value() const { return unpack(bits_.load(std::memory_order_relaxed)); }

  private:
    static std::uint64_t pack(double v);
    static double unpack(std::uint64_t bits);

    std::atomic<std::uint64_t> bits_{pack(0.0)};
};

/**
 * Fixed-boundary histogram: boundaries are upper bounds of the finite
 * buckets (ascending); one implicit +inf bucket catches the overflow.
 * observe() is lock-free; quantile() interpolates linearly inside the
 * selected bucket (the Prometheus histogram_quantile estimator), so
 * estimates carry bucket-resolution error by design.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> boundaries);

    void observe(double x);

    std::uint64_t count() const;
    double sum() const;
    const std::vector<double> &boundaries() const { return boundaries_; }

    /** Per-bucket counts, finite buckets first, +inf bucket last. */
    std::vector<std::uint64_t> bucketCounts() const;

    /** Estimated quantile (q in [0, 1]); 0 when empty. */
    double quantile(double q) const;

    /** Accumulate another histogram (must share boundaries). Bucket
     *  counts merge exactly; sums add in call order. */
    void merge(const Histogram &other);

  private:
    std::vector<double> boundaries_;
    std::deque<std::atomic<std::uint64_t>> buckets_; ///< size = bounds + 1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumBits_{0}; ///< packed double, CAS-added
};

/**
 * Quantile estimate from exported histogram state (shared by
 * Histogram::quantile and snapshot consumers): linear interpolation
 * within the bucket containing rank q * count; the +inf bucket reports
 * its lower boundary (nothing finer is known).
 */
double histogramQuantile(const std::vector<double> &boundaries,
                         const std::vector<std::uint64_t> &bucket_counts,
                         double q);

/** Latency bucket ladder used by the simulator series (ms). */
std::vector<double> defaultLatencyBucketsMs();

/** Exported state of one series at one scrape. */
struct SeriesSnapshot
{
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counterValue = 0; ///< Counter
    double gaugeValue = 0.0;        ///< Gauge
    std::uint64_t count = 0;        ///< Histogram observations
    double sum = 0.0;               ///< Histogram sum
    std::vector<double> boundaries;
    std::vector<std::uint64_t> bucketCounts;

    /** Equality compares doubles by bit pattern (NaN == NaN), so
     *  round-trip checks work on series holding non-finite values. */
    bool operator==(const SeriesSnapshot &other) const;
};

/** The (name, labels) order of TelemetrySnapshot::series. */
bool seriesBefore(const SeriesSnapshot &a, const SeriesSnapshot &b);

/** All series captured at one scrape instant (sim time in µs). */
struct TelemetrySnapshot
{
    SimTime at = 0;
    /** Strictly ascending by seriesBefore: every producer keeps this
     *  order (registry snapshots, shard merges, perturbation, the JSON
     *  reader), and the lookups below rely on it. */
    std::vector<SeriesSnapshot> series;

    /** Series lookup by binary search; nullptr when absent. */
    const SeriesSnapshot *find(const std::string &name,
                               const Labels &labels) const;

    /** Every series named `name`, in label order (empty when none). */
    std::span<const SeriesSnapshot> named(const std::string &name) const;

    bool operator==(const TelemetrySnapshot &other) const;
};

/**
 * Owner of all metric series. Registration is mutex-guarded and
 * idempotent (same name + labels returns the same object); returned
 * references stay valid for the registry's lifetime. Recording through
 * the returned handles is lock-free.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});
    Histogram &histogram(const std::string &name, const Labels &labels,
                         const std::vector<double> &boundaries);

    /** Number of registered series. */
    std::size_t seriesCount() const;

    /** Capture every series, deterministically ordered by
     *  (name, labels). */
    TelemetrySnapshot snapshot(SimTime at) const;

  private:
    struct Entry
    {
        std::string name;
        Labels labels;
        MetricKind kind = MetricKind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &name, const Labels &labels,
                        MetricKind kind);

    mutable std::mutex mutex_;
    std::deque<Entry> entries_;
    std::map<std::pair<std::string, Labels>, Entry *> index_;
};

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_REGISTRY_HPP
