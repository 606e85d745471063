#include "registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <thread>
#include <tuple>

#include "common/error.hpp"

namespace erms::telemetry {

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

namespace {

/** Stable per-thread shard index (hashed once per thread). */
std::size_t
threadShard()
{
    static thread_local const std::size_t shard =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        Counter::kShards;
    return shard;
}

} // namespace

void
Counter::add(std::uint64_t n)
{
    shards_[threadShard()].value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.value.load(std::memory_order_relaxed);
    return total;
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

std::uint64_t
Gauge::pack(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
Gauge::unpack(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries))
{
    ERMS_ASSERT_MSG(!boundaries_.empty(), "histogram needs >= 1 boundary");
    ERMS_ASSERT_MSG(
        std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
            std::adjacent_find(boundaries_.begin(), boundaries_.end()) ==
                boundaries_.end(),
        "histogram boundaries must be strictly ascending");
    for (std::size_t i = 0; i < boundaries_.size() + 1; ++i)
        buckets_.emplace_back(0);
}

void
Histogram::observe(double x)
{
    // Non-finite observations (a corrupt span) land in the +inf
    // overflow bucket — NaN compares false against every boundary, so
    // lower_bound would otherwise file it under the *smallest* bucket —
    // and are excluded from the sum, which one NaN/Inf would poison
    // permanently (cumulative sums never forget).
    if (!std::isfinite(x)) {
        buckets_.back().fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto it =
        std::lower_bound(boundaries_.begin(), boundaries_.end(), x);
    const std::size_t bucket =
        static_cast<std::size_t>(it - boundaries_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // CAS-add onto the packed double sum (atomic<double>::fetch_add is
    // C++20 but spotty across standard libraries).
    std::uint64_t expected = sumBits_.load(std::memory_order_relaxed);
    for (;;) {
        const double current = std::bit_cast<double>(expected);
        const std::uint64_t desired =
            std::bit_cast<std::uint64_t>(current + x);
        if (sumBits_.compare_exchange_weak(expected, desired,
                                           std::memory_order_relaxed))
            break;
    }
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return std::bit_cast<double>(sumBits_.load(std::memory_order_relaxed));
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(buckets_.size());
    for (const auto &bucket : buckets_)
        counts.push_back(bucket.load(std::memory_order_relaxed));
    return counts;
}

double
Histogram::quantile(double q) const
{
    return histogramQuantile(boundaries_, bucketCounts(), q);
}

void
Histogram::merge(const Histogram &other)
{
    ERMS_ASSERT_MSG(boundaries_ == other.boundaries_,
                    "histogram merge requires identical boundaries");
    const auto other_counts = other.bucketCounts();
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i].fetch_add(other_counts[i], std::memory_order_relaxed);
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    const double other_sum = other.sum();
    std::uint64_t expected = sumBits_.load(std::memory_order_relaxed);
    for (;;) {
        const double current = std::bit_cast<double>(expected);
        const std::uint64_t desired =
            std::bit_cast<std::uint64_t>(current + other_sum);
        if (sumBits_.compare_exchange_weak(expected, desired,
                                           std::memory_order_relaxed))
            break;
    }
}

double
histogramQuantile(const std::vector<double> &boundaries,
                  const std::vector<std::uint64_t> &bucket_counts,
                  double q)
{
    // Degenerate inputs answer "no estimate" (0) instead of reading
    // boundaries.back() of an empty ladder or propagating a NaN rank —
    // perturbed snapshot streams can surface both.
    if (boundaries.empty() || !(q >= 0.0 && q <= 1.0))
        return 0.0;
    ERMS_ASSERT(bucket_counts.size() == boundaries.size() + 1);
    std::uint64_t total = 0;
    for (std::uint64_t c : bucket_counts)
        total += c;
    if (total == 0)
        return 0.0;

    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
        cumulative += bucket_counts[i];
        if (static_cast<double>(cumulative) < rank)
            continue;
        if (i == boundaries.size()) {
            // +inf bucket: the last finite boundary is the best bound.
            return boundaries.back();
        }
        const double hi = boundaries[i];
        const double lo = i == 0 ? 0.0 : boundaries[i - 1];
        const std::uint64_t in_bucket = bucket_counts[i];
        if (in_bucket == 0)
            return hi;
        const double below =
            static_cast<double>(cumulative - in_bucket);
        const double frac =
            (rank - below) / static_cast<double>(in_bucket);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    return boundaries.back();
}

std::vector<double>
defaultLatencyBucketsMs()
{
    // 1-2-5 ladder from sub-millisecond queueing to multi-second
    // pathologies; matches the resolution Prometheus setups typically
    // configure for request latency.
    return {0.5,  1.0,  2.0,   5.0,   10.0,  20.0,  35.0,  50.0,
            75.0, 100.0, 150.0, 200.0, 300.0, 500.0, 750.0, 1000.0,
            1500.0, 2000.0, 3000.0, 5000.0, 10000.0};
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

namespace {

/** Bit-pattern double equality: NaN == NaN (same payload), so snapshot
 *  comparison — and the exporter round-trip tests built on it — stay
 *  meaningful for series that captured non-finite values. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](double x, double y) { return sameBits(x, y); });
}

} // namespace

bool
SeriesSnapshot::operator==(const SeriesSnapshot &other) const
{
    return name == other.name && labels == other.labels &&
           kind == other.kind && counterValue == other.counterValue &&
           sameBits(gaugeValue, other.gaugeValue) &&
           count == other.count && sameBits(sum, other.sum) &&
           sameBits(boundaries, other.boundaries) &&
           bucketCounts == other.bucketCounts;
}

bool
seriesBefore(const SeriesSnapshot &a, const SeriesSnapshot &b)
{
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
}

const SeriesSnapshot *
TelemetrySnapshot::find(const std::string &name, const Labels &labels) const
{
    const auto key = std::tie(name, labels);
    const auto it = std::lower_bound(
        series.begin(), series.end(), key,
        [](const SeriesSnapshot &s, const auto &k) {
            return std::tie(s.name, s.labels) < k;
        });
    if (it == series.end() || std::tie(it->name, it->labels) != key)
        return nullptr;
    return &*it;
}

std::span<const SeriesSnapshot>
TelemetrySnapshot::named(const std::string &name) const
{
    const auto first = std::lower_bound(
        series.begin(), series.end(), name,
        [](const SeriesSnapshot &s, const std::string &n) {
            return s.name < n;
        });
    const auto last = std::upper_bound(
        first, series.end(), name,
        [](const std::string &n, const SeriesSnapshot &s) {
            return n < s.name;
        });
    return {first, last};
}

bool
TelemetrySnapshot::operator==(const TelemetrySnapshot &other) const
{
    return at == other.at && series == other.series;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name, const Labels &labels,
                              MetricKind kind)
{
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    const auto key = std::make_pair(name, sorted);
    auto it = index_.find(key);
    if (it != index_.end()) {
        ERMS_ASSERT_MSG(it->second->kind == kind,
                        "metric re-registered with a different kind");
        return *it->second;
    }
    entries_.emplace_back();
    Entry &entry = entries_.back();
    entry.name = name;
    entry.labels = std::move(sorted);
    entry.kind = kind;
    index_.emplace(key, &entry);
    return entry;
}

Counter &
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = findOrCreate(name, labels, MetricKind::Counter);
    if (!entry.counter)
        entry.counter = std::make_unique<Counter>();
    return *entry.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = findOrCreate(name, labels, MetricKind::Gauge);
    if (!entry.gauge)
        entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const Labels &labels,
                           const std::vector<double> &boundaries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = findOrCreate(name, labels, MetricKind::Histogram);
    if (!entry.histogram) {
        entry.histogram = std::make_unique<Histogram>(boundaries);
    } else {
        ERMS_ASSERT_MSG(entry.histogram->boundaries() == boundaries,
                        "histogram re-registered with other boundaries");
    }
    return *entry.histogram;
}

std::size_t
MetricsRegistry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

TelemetrySnapshot
MetricsRegistry::snapshot(SimTime at) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TelemetrySnapshot snap;
    snap.at = at;
    snap.series.reserve(entries_.size());
    // index_ is an ordered map over (name, labels): iteration yields the
    // deterministic export order regardless of registration order.
    for (const auto &[key, entry] : index_) {
        SeriesSnapshot s;
        s.name = entry->name;
        s.labels = entry->labels;
        s.kind = entry->kind;
        switch (entry->kind) {
          case MetricKind::Counter:
            s.counterValue = entry->counter->value();
            break;
          case MetricKind::Gauge:
            s.gaugeValue = entry->gauge->value();
            break;
          case MetricKind::Histogram:
            s.count = entry->histogram->count();
            s.sum = entry->histogram->sum();
            s.boundaries = entry->histogram->boundaries();
            s.bucketCounts = entry->histogram->bucketCounts();
            break;
        }
        snap.series.push_back(std::move(s));
    }
    return snap;
}

} // namespace erms::telemetry
