/**
 * @file
 * Prometheus-style metrics primitives for the online telemetry
 * subsystem: monotonic counters, gauges, and fixed-boundary histograms
 * with bucket-interpolated quantile estimation — the information model
 * of the paper's §5 monitoring loop (Prometheus counters + Jaeger
 * latency spans scraped on an interval), as opposed to the oracle
 * statistics the simulator keeps internally.
 *
 * Determinism contract: recording into metrics never draws from any
 * RNG and never schedules events, so attaching telemetry to a
 * simulation cannot change its request-level behaviour (pinned by the
 * TelemetryTransparency property suite).
 */

#ifndef ERMS_TELEMETRY_REGISTRY_HPP
#define ERMS_TELEMETRY_REGISTRY_HPP

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
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
 * Monotonic event counter: one relaxed atomic word. Each registry has
 * one writer, its simulation's thread; the atomic keeps concurrent
 * increments exact all the same.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void inc() { add(1); }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
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
    /** The same counts written to `out` (boundaries + 1 words). */
    void bucketCounts(std::uint64_t *out) const;

    /** Estimated quantile (q in [0, 1]); 0 when empty. */
    double quantile(double q) const;

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

/** Exported state of one series at one scrape: the expanded form of
 *  one snapshot series, as files store it and fixtures build it. */
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

/** The (name, labels) order of every snapshot's series. */
bool seriesBefore(const SeriesSnapshot &a, const SeriesSnapshot &b);

/** "key=value;key=value". */
std::string labelsToString(const Labels &labels);

/** Why `series` is not strictly ascending by seriesBefore (naming the
 *  first duplicated or out-of-order entry), or an empty string. */
std::string seriesOrderProblem(const std::vector<SeriesSnapshot> &series);

/** Why `boundaries` cannot be a histogram ladder (empty, NaN, or not
 *  strictly ascending), or an empty string. */
std::string boundariesProblem(const std::vector<double> &boundaries);

/** Why a histogram's bucket list does not fit its ladder (one bucket
 *  more than boundaries), or an empty string. */
std::string bucketsProblem(const SeriesSnapshot &s);

/**
 * Immutable identity list of a snapshot's series: name, labels, kind
 * and histogram boundaries, with dense ids in (name, labels) order, and
 * where each id's values sit in a snapshot's flat value array. A
 * registry hands one schema to every snapshot it takes until a new
 * series registers, so a scrape stores its values and nothing else.
 */
class SeriesSchema
{
  public:
    /** One series' identity. */
    struct Series
    {
        std::string name;
        Labels labels;
        MetricKind kind = MetricKind::Counter;
        std::vector<double> boundaries; ///< Histogram ladder only
        /** First value word; SeriesValues lays the words out. */
        std::size_t offset = 0;
    };

    /** Identities strictly ascending by (name, labels), histograms with
     *  a valid ladder (asserted); the offsets are assigned here. */
    explicit SeriesSchema(std::vector<Series> series);

    std::size_t size() const { return series_.size(); }
    const Series &operator[](std::size_t id) const { return series_[id]; }

    /** Value words of one snapshot of this schema. */
    std::size_t valueCount() const { return valueCount_; }

    /** Id of (name, labels) by binary search, or size() when absent. */
    std::size_t find(const std::string &name, const Labels &labels) const;

    /** The ids named `name`, [first, last) in label order. */
    std::pair<std::size_t, std::size_t> named(const std::string &name) const;

    /** Same identities (boundaries compared by bit pattern). */
    bool operator==(const SeriesSchema &other) const;

  private:
    std::vector<Series> series_;
    std::size_t valueCount_ = 0;
};

/**
 * One series' value words: the one definition of their layout and of
 * how two series fold. A counter takes one word, a gauge one word (its
 * bit pattern), and a histogram its count, its sum's bit pattern, then
 * boundaries + 1 buckets, finite first. Over `std::uint64_t` the words
 * are writable, over `const std::uint64_t` read-only.
 */
template <class Word>
class SeriesValues
{
    static_assert(std::is_same_v<std::remove_const_t<Word>, std::uint64_t>);

  public:
    /** Words a series of `kind` over `boundaries` finite buckets takes. */
    static constexpr std::size_t
    wordCount(MetricKind kind, std::size_t boundaries)
    {
        return kind == MetricKind::Histogram ? 2 + boundaries + 1 : 1;
    }

    /** The words of a series of `kind` over `boundaries`, from `words`. */
    SeriesValues(MetricKind kind, std::size_t boundaries, Word *words)
        : kind_(kind), boundaries_(boundaries), words_(words)
    {}

    Word *data() const { return words_; }
    std::size_t size() const { return wordCount(kind_, boundaries_); }

    Word &counter() const { return words_[0]; }

    double gauge() const { return std::bit_cast<double>(words_[0]); }
    void
    setGauge(double v) const
        requires(!std::is_const_v<Word>)
    {
        words_[0] = std::bit_cast<std::uint64_t>(v);
    }

    /** Histogram observations. */
    Word &count() const { return words_[0]; }
    double sum() const { return std::bit_cast<double>(words_[1]); }
    void
    setSum(double v) const
        requires(!std::is_const_v<Word>)
    {
        words_[1] = std::bit_cast<std::uint64_t>(v);
    }
    /** Histogram buckets, finite first, +inf last. */
    std::span<Word> buckets() const { return {words_ + 2, boundaries_ + 1}; }

    /**
     * Fold `part`, a series of the same kind and ladder, into these
     * words: counters, histogram counts and buckets add as integers; a
     * gauge or a histogram sum adds once as a double, this + part.
     */
    void
    add(const SeriesValues<const std::uint64_t> &part) const
        requires(!std::is_const_v<Word>)
    {
        switch (kind_) {
        case MetricKind::Counter:
            counter() += part.counter();
            break;
        case MetricKind::Gauge:
            setGauge(gauge() + part.gauge());
            break;
        case MetricKind::Histogram:
            count() += part.count();
            setSum(sum() + part.sum());
            for (std::size_t b = 0; b <= boundaries_; ++b)
                buckets()[b] += part.buckets()[b];
            break;
        }
    }

  private:
    MetricKind kind_;
    std::size_t boundaries_;
    Word *words_;
};

/** One series of one snapshot, by reference: its identity in the
 *  schema and its values. Valid while the snapshot lives unchanged. */
class SeriesRef
{
  public:
    SeriesRef(const SeriesSchema::Series &series,
              const std::uint64_t *values)
        : series_(&series), values_(values)
    {}

    const std::string &name() const { return series_->name; }
    const Labels &labels() const { return series_->labels; }
    MetricKind kind() const { return series_->kind; }
    const std::vector<double> &boundaries() const
    {
        return series_->boundaries;
    }

    /** The series' value words, read-only. */
    SeriesValues<const std::uint64_t>
    words() const
    {
        return {kind(), boundaries().size(), values_};
    }

    /** Counter value (0 for other kinds). */
    std::uint64_t
    counterValue() const
    {
        return kind() == MetricKind::Counter ? words().counter() : 0;
    }
    /** Gauge value (0 for other kinds). */
    double
    gaugeValue() const
    {
        return kind() == MetricKind::Gauge ? words().gauge() : 0.0;
    }
    /** Histogram observations and sum (0 for other kinds). */
    std::uint64_t
    count() const
    {
        return kind() == MetricKind::Histogram ? words().count() : 0;
    }
    double
    sum() const
    {
        return kind() == MetricKind::Histogram ? words().sum() : 0.0;
    }
    /** Histogram buckets, finite first, +inf last (empty for other
     *  kinds). */
    std::span<const std::uint64_t>
    bucketCounts() const
    {
        if (kind() != MetricKind::Histogram)
            return {};
        return words().buckets();
    }

    SeriesSnapshot expand() const;

    /** The same series of the same snapshot. */
    bool operator==(const SeriesRef &other) const = default;

  private:
    const SeriesSchema::Series *series_;
    const std::uint64_t *values_;
};

/** All series captured at one scrape instant (sim time in µs). */
struct TelemetrySnapshot
{
    SimTime at = 0;
    /** Identities of the series, shared with every snapshot of the same
     *  registry version; null means no series. */
    std::shared_ptr<const SeriesSchema> schema;
    /** Every series' value words in id order, at the schema's
     *  offsets. */
    std::vector<std::uint64_t> values;

    /**
     * A snapshot holding `series`, which must be strictly ascending by
     * seriesBefore with every histogram on a valid ladder and
     * boundaries + 1 buckets. Only the fields of each series' kind are
     * kept. @throws ErmsError naming the first problem.
     */
    static TelemetrySnapshot fromSeries(SimTime at,
                                        std::vector<SeriesSnapshot> series);

    /** Number of series. */
    std::size_t size() const { return schema ? schema->size() : 0; }
    bool empty() const { return size() == 0; }

    /** Series `id` by reference. */
    SeriesRef operator[](std::size_t id) const
    {
        const SeriesSchema::Series &s = (*schema)[id];
        return {s, values.data() + s.offset};
    }

    /** Series `id`'s value words, writable (read-only ones:
     *  (*this)[id].words()). */
    SeriesValues<std::uint64_t>
    words(std::size_t id)
    {
        const SeriesSchema::Series &s = (*schema)[id];
        return {s.kind, s.boundaries.size(), values.data() + s.offset};
    }

    /** Series `id` expanded. */
    SeriesSnapshot series(std::size_t id) const;

    /** Every series expanded, in id order. */
    std::vector<SeriesSnapshot> expand() const;

    /** Series lookup by binary search; nullopt when absent. */
    std::optional<SeriesRef> find(const std::string &name,
                                  const Labels &labels) const;

    /** Every series named `name`, in label order (empty when none). */
    auto
    named(const std::string &name) const
    {
        const auto [first, last] =
            schema ? schema->named(name)
                   : std::pair<std::size_t, std::size_t>{};
        return std::views::iota(first, last) |
               std::views::transform(
                   [this](std::size_t id) { return (*this)[id]; });
    }

    /** Expanded content equality (doubles by bit pattern); snapshots
     *  sharing one schema compare their values alone. */
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
     *  (name, labels). The snapshot shares the schema of the previous
     *  one unless a series registered since. */
    TelemetrySnapshot snapshot(SimTime at) const;

  private:
    struct Entry
    {
        MetricKind kind = MetricKind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &name, const Labels &labels,
                        MetricKind kind);

    mutable std::mutex mutex_;
    /** Every series by (name, labels): the keys are the only copy of
     *  the identity strings outside the schemas. */
    std::map<std::pair<std::string, Labels>, Entry> index_;
    /** The schema of the last snapshot and its entries in id order;
     *  rebuilt by the next snapshot once a series registers. */
    mutable std::shared_ptr<const SeriesSchema> schema_;
    mutable std::vector<const Entry *> order_;
};

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_REGISTRY_HPP
