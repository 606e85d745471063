#include "registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>

#include "common/error.hpp"

namespace erms::telemetry {

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
    ERMS_ASSERT_MSG(boundariesProblem(boundaries_).empty(),
                    "histogram boundaries must be non-empty, strictly "
                    "ascending and NaN-free");
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
    std::vector<std::uint64_t> counts(buckets_.size());
    bucketCounts(counts.data());
    return counts;
}

void
Histogram::bucketCounts(std::uint64_t *out) const
{
    for (const auto &bucket : buckets_)
        *out++ = bucket.load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    return histogramQuantile(boundaries_, bucketCounts(), q);
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

using erms::sameBits;

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

std::string
labelsToString(const Labels &labels)
{
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ';';
        out += labels[i].first;
        out += '=';
        out += labels[i].second;
    }
    return out;
}

std::string
seriesOrderProblem(const std::vector<SeriesSnapshot> &series)
{
    for (std::size_t i = 1; i < series.size(); ++i) {
        if (seriesBefore(series[i - 1], series[i]))
            continue;
        const SeriesSnapshot &s = series[i];
        return "series " + std::to_string(i) + " (" + s.name + "{" +
               labelsToString(s.labels) + "}) " +
               (seriesBefore(s, series[i - 1]) ? "sorts before"
                                               : "duplicates") +
               " series " + std::to_string(i - 1) +
               "; series must be strictly ascending by (name, labels)";
    }
    return {};
}

std::string
boundariesProblem(const std::vector<double> &boundaries)
{
    if (boundaries.empty())
        return "a histogram needs at least one boundary";
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        if (std::isnan(boundaries[i]))
            return "boundary " + std::to_string(i) + " is NaN";
        if (i > 0 && !(boundaries[i - 1] < boundaries[i]))
            return "boundary " + std::to_string(i) +
                   " does not exceed boundary " + std::to_string(i - 1) +
                   "; boundaries must be strictly ascending";
    }
    return {};
}

std::string
bucketsProblem(const SeriesSnapshot &s)
{
    if (s.bucketCounts.size() == s.boundaries.size() + 1)
        return {};
    return std::to_string(s.bucketCounts.size()) + " buckets for " +
           std::to_string(s.boundaries.size()) +
           " boundaries; a histogram has one bucket more than boundaries";
}

// ---------------------------------------------------------------------
// SeriesSchema
// ---------------------------------------------------------------------

SeriesSchema::SeriesSchema(std::vector<Series> series)
    : series_(std::move(series))
{
    for (std::size_t id = 0; id < series_.size(); ++id) {
        Series &s = series_[id];
        ERMS_ASSERT_MSG(id == 0 || std::tie(series_[id - 1].name,
                                            series_[id - 1].labels) <
                                       std::tie(s.name, s.labels),
                        "schema series must be strictly ascending");
        ERMS_ASSERT_MSG(s.kind == MetricKind::Histogram
                            ? boundariesProblem(s.boundaries).empty()
                            : s.boundaries.empty(),
                        "schema histogram ladder is invalid");
        s.offset = valueCount_;
        valueCount_ += SeriesValues<const std::uint64_t>::wordCount(
            s.kind, s.boundaries.size());
    }
}

std::size_t
SeriesSchema::find(const std::string &name, const Labels &labels) const
{
    const auto key = std::tie(name, labels);
    const auto it = std::lower_bound(
        series_.begin(), series_.end(), key,
        [](const Series &s, const auto &k) {
            return std::tie(s.name, s.labels) < k;
        });
    if (it == series_.end() || std::tie(it->name, it->labels) != key)
        return series_.size();
    return static_cast<std::size_t>(it - series_.begin());
}

std::pair<std::size_t, std::size_t>
SeriesSchema::named(const std::string &name) const
{
    const auto first = std::lower_bound(
        series_.begin(), series_.end(), name,
        [](const Series &s, const std::string &n) { return s.name < n; });
    const auto last = std::upper_bound(
        first, series_.end(), name,
        [](const std::string &n, const Series &s) { return n < s.name; });
    return {static_cast<std::size_t>(first - series_.begin()),
            static_cast<std::size_t>(last - series_.begin())};
}

bool
SeriesSchema::operator==(const SeriesSchema &other) const
{
    return std::equal(series_.begin(), series_.end(), other.series_.begin(),
                      other.series_.end(),
                      [](const Series &a, const Series &b) {
                          return a.name == b.name && a.labels == b.labels &&
                                 a.kind == b.kind &&
                                 sameBits(a.boundaries, b.boundaries);
                      });
}

// ---------------------------------------------------------------------
// SeriesRef
// ---------------------------------------------------------------------

SeriesSnapshot
SeriesRef::expand() const
{
    SeriesSnapshot s;
    s.name = name();
    s.labels = labels();
    s.kind = kind();
    s.counterValue = counterValue();
    s.gaugeValue = gaugeValue();
    s.count = count();
    s.sum = sum();
    s.boundaries = boundaries();
    const auto buckets = bucketCounts();
    s.bucketCounts.assign(buckets.begin(), buckets.end());
    return s;
}

// ---------------------------------------------------------------------
// TelemetrySnapshot
// ---------------------------------------------------------------------

TelemetrySnapshot
TelemetrySnapshot::fromSeries(SimTime at, std::vector<SeriesSnapshot> series)
{
    if (std::string problem = seriesOrderProblem(series); !problem.empty())
        throw ErmsError(problem);
    std::vector<SeriesSchema::Series> identities;
    identities.reserve(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        SeriesSnapshot &s = series[i];
        if (s.kind == MetricKind::Histogram) {
            std::string problem = boundariesProblem(s.boundaries);
            if (problem.empty())
                problem = bucketsProblem(s);
            if (!problem.empty())
                throw ErmsError("series " + std::to_string(i) + " (" +
                                s.name + "{" + labelsToString(s.labels) +
                                "}): " + problem);
        } else {
            s.boundaries.clear();
        }
        identities.push_back({std::move(s.name), std::move(s.labels), s.kind,
                              std::move(s.boundaries)});
    }
    TelemetrySnapshot snap;
    snap.at = at;
    snap.schema = std::make_shared<const SeriesSchema>(std::move(identities));
    snap.values.resize(snap.schema->valueCount());
    for (std::size_t id = 0; id < series.size(); ++id) {
        const SeriesSnapshot &s = series[id];
        const SeriesValues<std::uint64_t> v = snap.words(id);
        switch (s.kind) {
          case MetricKind::Counter:
            v.counter() = s.counterValue;
            break;
          case MetricKind::Gauge:
            v.setGauge(s.gaugeValue);
            break;
          case MetricKind::Histogram:
            v.count() = s.count;
            v.setSum(s.sum);
            std::ranges::copy(s.bucketCounts, v.buckets().begin());
            break;
        }
    }
    return snap;
}

SeriesSnapshot
TelemetrySnapshot::series(std::size_t id) const
{
    return (*this)[id].expand();
}

std::vector<SeriesSnapshot>
TelemetrySnapshot::expand() const
{
    std::vector<SeriesSnapshot> out;
    out.reserve(size());
    for (std::size_t id = 0; id < size(); ++id)
        out.push_back(series(id));
    return out;
}

std::optional<SeriesRef>
TelemetrySnapshot::find(const std::string &name, const Labels &labels) const
{
    if (!schema)
        return std::nullopt;
    const std::size_t id = schema->find(name, labels);
    if (id == schema->size())
        return std::nullopt;
    return (*this)[id];
}

bool
TelemetrySnapshot::operator==(const TelemetrySnapshot &other) const
{
    // Equal identities lay out equal values identically, so the value
    // words (doubles as bit patterns) decide the rest.
    if (at != other.at || values != other.values)
        return false;
    if (schema == other.schema)
        return true;
    if (size() != other.size())
        return false;
    return size() == 0 || *schema == *other.schema;
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
    auto [it, inserted] =
        index_.try_emplace(std::make_pair(name, std::move(sorted)));
    if (inserted)
        it->second.kind = kind;
    ERMS_ASSERT_MSG(it->second.kind == kind,
                    "metric re-registered with a different kind");
    return it->second;
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
    return index_.size();
}

TelemetrySnapshot
MetricsRegistry::snapshot(SimTime at) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Series are never removed, so a size change means a registration:
    // the next schema version, in index_'s (name, labels) order.
    if (!schema_ || schema_->size() != index_.size()) {
        std::vector<SeriesSchema::Series> series;
        series.reserve(index_.size());
        order_.clear();
        for (const auto &[key, entry] : index_) {
            series.push_back(
                {key.first, key.second, entry.kind,
                 entry.histogram ? entry.histogram->boundaries()
                                 : std::vector<double>{}});
            order_.push_back(&entry);
        }
        schema_ = std::make_shared<const SeriesSchema>(std::move(series));
    }
    TelemetrySnapshot snap;
    snap.at = at;
    snap.schema = schema_;
    snap.values.resize(schema_->valueCount());
    for (std::size_t id = 0; id < order_.size(); ++id) {
        const Entry &entry = *order_[id];
        const SeriesValues<std::uint64_t> out = snap.words(id);
        switch (entry.kind) {
          case MetricKind::Counter:
            out.counter() = entry.counter->value();
            break;
          case MetricKind::Gauge:
            out.setGauge(entry.gauge->value());
            break;
          case MetricKind::Histogram:
            out.count() = entry.histogram->count();
            out.setSum(entry.histogram->sum());
            entry.histogram->bucketCounts(out.buckets().data());
            break;
        }
    }
    return snap;
}

} // namespace erms::telemetry
