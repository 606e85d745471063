/**
 * @file
 * Tests for the telemetry subsystem: registry semantics (counters,
 * gauges, histograms, deterministic snapshot ordering), quantile
 * estimation against exact sorted samples, scraped-view staleness and
 * rate computation, exporter round-trips, deterministic span sampling,
 * the null-view escape hatch reproducing the oracle controller run
 * exactly with a monitor attached, and the Simulation as the oracle
 * TelemetryView of the ended minute.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apps/applications.hpp"
#include "common/stats.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "sim/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/view.hpp"
#include "trace/span.hpp"

namespace erms {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Labels;
using telemetry::MetricKind;
using telemetry::MetricsRegistry;
using telemetry::TelemetrySnapshot;

// ---------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------

TEST(TelemetryCounter, AccumulatesAcrossShardsAndThreads)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.add(4);
    EXPECT_EQ(counter.value(), 5u);

    // Concurrent increments from many threads must all land: the
    // counter is one atomic word, not a plain integer.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kPerThread; ++i)
                counter.inc();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), 5u + kThreads * kPerThread);
}

TEST(TelemetryGauge, LastWriteWins)
{
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_EQ(gauge.value(), 3.5);
    gauge.set(-0.25);
    EXPECT_EQ(gauge.value(), -0.25);
}

TEST(TelemetryHistogram, BucketBoundariesAreUpperBoundsPlusInf)
{
    Histogram h({1.0, 2.0, 5.0});
    // Boundary values land in the bucket they bound (le semantics).
    h.observe(0.5);
    h.observe(1.0);
    h.observe(1.5);
    h.observe(5.0);
    h.observe(100.0); // +inf bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
    const auto counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u); // 0.5, 1.0
    EXPECT_EQ(counts[1], 1u); // 1.5
    EXPECT_EQ(counts[2], 1u); // 5.0
    EXPECT_EQ(counts[3], 1u); // 100.0
}

TEST(TelemetryHistogram, QuantileTracksExactSamplesWithinBucketWidth)
{
    // Uniformly spread samples: the interpolated estimate must stay
    // within one bucket width of the exact sorted-sample quantile.
    std::vector<double> boundaries;
    for (double b = 10.0; b <= 500.0; b += 10.0)
        boundaries.push_back(b);
    Histogram h(boundaries);
    SampleSet exact;
    for (int i = 0; i < 5000; ++i) {
        const double x = 0.1 * static_cast<double>(i % 4800);
        h.observe(x);
        exact.add(x);
    }
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        const double est = h.quantile(q);
        const double ref = exact.quantile(q);
        EXPECT_NEAR(est, ref, 10.0) << "q=" << q;
    }
}

TEST(TelemetryHistogram, QuantileEdgeCases)
{
    Histogram h({1.0, 2.0});
    EXPECT_EQ(h.quantile(0.95), 0.0); // empty
    h.observe(10.0);                  // only the +inf bucket
    // Nothing finer than the last finite boundary is known.
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 2.0);
}

TEST(TelemetryHistogram, NonFiniteObservationsCannotPoisonTheSum)
{
    Histogram h({1.0, 2.0});
    h.observe(std::numeric_limits<double>::quiet_NaN());
    h.observe(std::numeric_limits<double>::infinity());
    h.observe(-std::numeric_limits<double>::infinity());
    h.observe(0.5);
    // Corrupt observations count in the +inf overflow bucket (NaN would
    // otherwise land in the *smallest* bucket via lower_bound) and are
    // excluded from the cumulative sum, which one NaN poisons forever.
    EXPECT_EQ(h.count(), 4u);
    const auto counts = h.bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[2], 3u);
    EXPECT_TRUE(std::isfinite(h.sum()));
    EXPECT_DOUBLE_EQ(h.sum(), 0.5);
    EXPECT_TRUE(std::isfinite(h.quantile(0.95)));
}

TEST(TelemetryHistogram, QuantileGuardsDegenerateInputs)
{
    // Empty bucket ladders and non-finite ranks answer "no estimate"
    // instead of reading boundaries.back() of nothing.
    EXPECT_EQ(telemetry::histogramQuantile({}, {5}, 0.95), 0.0);
    EXPECT_EQ(telemetry::histogramQuantile(
                  {1.0}, {1, 0},
                  std::numeric_limits<double>::quiet_NaN()),
              0.0);
}

TEST(TelemetryHistogram, MergeAddsBucketCountsExactly)
{
    // The shard merge's fold over two registries' snapshots of one
    // histogram series.
    MetricsRegistry ra, rb;
    Histogram &a = ra.histogram("h", {}, {1.0, 2.0});
    Histogram &b = rb.histogram("h", {}, {1.0, 2.0});
    a.observe(0.5);
    a.observe(3.0);
    b.observe(1.5);
    b.observe(4.0);
    TelemetrySnapshot merged = ra.snapshot(0);
    merged.words(0).add(rb.snapshot(0)[0].words());
    EXPECT_EQ(merged[0].count(), 4u);
    const auto counts = merged[0].bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 2u);
    EXPECT_DOUBLE_EQ(merged[0].sum(), 0.5 + 3.0 + 1.5 + 4.0);
}

TEST(TelemetryRegistry, RegistrationIsIdempotentAndSnapshotOrdered)
{
    MetricsRegistry registry;
    Counter &c1 = registry.counter("zeta_total", {{"svc", "1"}});
    Counter &c2 = registry.counter("zeta_total", {{"svc", "1"}});
    EXPECT_EQ(&c1, &c2);
    registry.counter("alpha_total");
    registry.gauge("mid_gauge", {{"svc", "2"}});
    registry.counter("zeta_total", {{"svc", "0"}});
    EXPECT_EQ(registry.seriesCount(), 4u);

    const TelemetrySnapshot snap = registry.snapshot(123);
    EXPECT_EQ(snap.at, 123u);
    ASSERT_EQ(snap.size(), 4u);
    // Deterministic (name, labels) order regardless of registration
    // order.
    EXPECT_EQ(snap[0].name(), "alpha_total");
    EXPECT_EQ(snap[1].name(), "mid_gauge");
    EXPECT_EQ(snap[2].name(), "zeta_total");
    EXPECT_EQ(snap[2].labels(),
              (Labels{{"svc", "0"}}));
    EXPECT_EQ(snap[3].labels(),
              (Labels{{"svc", "1"}}));
}

TEST(TelemetryRegistry, SnapshotEqualityIsNaNAware)
{
    telemetry::SeriesSnapshot a;
    a.kind = MetricKind::Gauge;
    a.gaugeValue = std::numeric_limits<double>::quiet_NaN();
    telemetry::SeriesSnapshot b = a;
    // Bit-pattern equality: identical NaNs compare equal, so exporter
    // round-trip checks stay meaningful on non-finite captures.
    EXPECT_TRUE(a == b);
    b.gaugeValue = 1.0;
    EXPECT_FALSE(a == b);
}

TEST(TelemetryRegistry, SnapshotFreezesValues)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("c_total");
    c.add(7);
    const TelemetrySnapshot before = registry.snapshot(1);
    c.add(3);
    const TelemetrySnapshot after = registry.snapshot(2);
    EXPECT_EQ(before.find("c_total", {})->counterValue(), 7u);
    EXPECT_EQ(after.find("c_total", {})->counterValue(), 10u);
    EXPECT_EQ(before.find("missing", {}), std::nullopt);
}

TEST(TelemetryRegistry, FindHitsEverySeriesAndMissesEveryOtherKey)
{
    MetricsRegistry registry;
    registry.gauge("erms_fault_planned_crashes");
    registry.gauge("erms_host_cpu_util", {{"host", "0"}});
    registry.gauge("erms_host_cpu_util", {{"host", "2"}});
    registry.histogram("erms_ms_latency_ms", {{"microservice", "5"}},
                       {1.0, 10.0});
    registry.counter("erms_requests_total", {{"service", "1"}});
    registry.counter("erms_requests_total", {{"service", "3"}});
    const TelemetrySnapshot snap = registry.snapshot(0);
    ASSERT_EQ(snap.size(), 6u);
    for (std::size_t id = 0; id < snap.size(); ++id)
        EXPECT_EQ(snap.find(snap[id].name(), snap[id].labels()), snap[id])
            << snap[id].name();

    // Keys sorting before the first series, between two, after the last.
    EXPECT_EQ(snap.find("", {}), std::nullopt);
    EXPECT_EQ(snap.find("erms_a", {}), std::nullopt);
    EXPECT_EQ(snap.find("erms_host_cpu_util", {{"host", "1"}}), std::nullopt);
    EXPECT_EQ(snap.find("erms_i", {}), std::nullopt);
    EXPECT_EQ(snap.find("erms_requests_total", {{"service", "2"}}), std::nullopt);
    EXPECT_EQ(snap.find("erms_requests_total", {{"service", "4"}}), std::nullopt);
    EXPECT_EQ(snap.find("zzz", {}), std::nullopt);
    // Known names with other labels.
    EXPECT_EQ(snap.find("erms_host_cpu_util", {}), std::nullopt);
    EXPECT_EQ(snap.find("erms_host_cpu_util", {{"service", "0"}}), std::nullopt);
    EXPECT_EQ(snap.find("erms_fault_planned_crashes", {{"host", "0"}}),
              std::nullopt);
    EXPECT_EQ(snap.find("erms_requests_total",
                        {{"host", "0"}, {"service", "1"}}),
              std::nullopt);
    EXPECT_EQ(TelemetrySnapshot{}.find("erms_host_cpu_util", {}), std::nullopt);

    // named() is the run of one name, in label order.
    const auto hosts = snap.named("erms_host_cpu_util");
    ASSERT_EQ(hosts.size(), 2u);
    EXPECT_EQ(hosts[0], snap.find("erms_host_cpu_util", {{"host", "0"}}));
    EXPECT_EQ(hosts[1], snap.find("erms_host_cpu_util", {{"host", "2"}}));
    EXPECT_TRUE(snap.named("erms_i").empty());
    EXPECT_TRUE(snap.named("zzz").empty());
}

// ---------------------------------------------------------------------
// Series schemas
// ---------------------------------------------------------------------

TEST(TelemetrySchema, UnchangedRegistrySharesOneSchema)
{
    MetricsRegistry registry;
    Counter &requests = registry.counter("erms_requests_total",
                                         {{"service", "0"}});
    Histogram &latency = registry.histogram(
        "erms_request_latency_ms", {{"service", "0"}}, {1.0, 10.0});
    requests.add(3);
    const TelemetrySnapshot a = registry.snapshot(1);
    requests.add(4);
    latency.observe(5.0);
    // Recording through existing handles registers nothing.
    registry.counter("erms_requests_total", {{"service", "0"}}).inc();
    const TelemetrySnapshot b = registry.snapshot(2);

    ASSERT_NE(a.schema, nullptr);
    EXPECT_EQ(a.schema, b.schema);
    EXPECT_EQ(a.values.size(), a.schema->valueCount());
    EXPECT_EQ(a.find("erms_requests_total", {{"service", "0"}})
                  ->counterValue(),
              3u);
    EXPECT_EQ(b.find("erms_requests_total", {{"service", "0"}})
                  ->counterValue(),
              8u);
    EXPECT_EQ(b.find("erms_request_latency_ms", {{"service", "0"}})
                  ->count(),
              1u);
    EXPECT_FALSE(a == b);
    // Shared-schema equality is value equality.
    TelemetrySnapshot c = b;
    EXPECT_TRUE(c == b);
    c.values.back() += 1;
    EXPECT_FALSE(c == b);
}

TEST(TelemetrySchema, LateRegistrationStartsANewVersion)
{
    MetricsRegistry registry;
    registry.gauge("erms_host_cpu_util", {{"host", "0"}}).set(0.25);
    registry.counter("erms_retries_total", {{"microservice", "2"}}).add(5);
    const TelemetrySnapshot before = registry.snapshot(10);
    const std::vector<telemetry::SeriesSnapshot> expanded = before.expand();
    const auto first_schema = before.schema;

    registry.counter("erms_requests_total", {{"service", "1"}}).add(9);
    registry.gauge("erms_host_cpu_util", {{"host", "0"}}).set(0.75);
    const TelemetrySnapshot after = registry.snapshot(20);

    // The old snapshot keeps its own version and expands as before.
    EXPECT_EQ(before.schema, first_schema);
    EXPECT_NE(after.schema, before.schema);
    EXPECT_EQ(before.size(), 2u);
    EXPECT_EQ(before.expand(), expanded);
    EXPECT_EQ(before.series(0).gaugeValue, 0.25);
    EXPECT_EQ(before.find("erms_requests_total", {{"service", "1"}}),
              std::nullopt);

    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after.find("erms_requests_total", {{"service", "1"}})
                  ->counterValue(),
              9u);
    EXPECT_EQ(after.find("erms_host_cpu_util", {{"host", "0"}})
                  ->gaugeValue(),
              0.75);
    // The next scrape without a registration reuses the new version.
    EXPECT_EQ(registry.snapshot(30).schema, after.schema);
}

TEST(TelemetrySchema, FromSeriesKeepsTheReadersRules)
{
    telemetry::SeriesSnapshot a;
    a.name = "a";
    a.kind = MetricKind::Counter;
    a.counterValue = 4;
    telemetry::SeriesSnapshot h;
    h.name = "h";
    h.kind = MetricKind::Histogram;
    h.count = 1;
    h.sum = 2.0;
    h.boundaries = {1.0, 5.0};
    h.bucketCounts = {0, 1, 0};

    const TelemetrySnapshot snap = TelemetrySnapshot::fromSeries(7, {a, h});
    EXPECT_EQ(snap.at, 7u);
    EXPECT_EQ(snap.expand(), (std::vector<telemetry::SeriesSnapshot>{a, h}));

    const auto problem = [](std::vector<telemetry::SeriesSnapshot> series) {
        try {
            TelemetrySnapshot::fromSeries(0, std::move(series));
        } catch (const ErmsError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(problem({h, a}).find("series 1 (a{}) sorts before"),
              std::string::npos);
    EXPECT_NE(problem({a, a}).find("series 1 (a{}) duplicates"),
              std::string::npos);
    for (const auto &[boundaries, buckets] :
         std::vector<std::pair<std::vector<double>, std::size_t>>{
             {{1.0, 2.0}, 1},
             {{2.0, 1.0}, 3},
             {{}, 1},
             {{std::numeric_limits<double>::quiet_NaN(), 2.0}, 3}}) {
        telemetry::SeriesSnapshot bad = h;
        bad.boundaries = boundaries;
        bad.bucketCounts.assign(buckets, 0);
        EXPECT_NE(problem({a, bad}).find("series 1 (h{}): "),
                  std::string::npos)
            << boundaries.size() << " boundaries, " << buckets << " buckets";
    }
}

TEST(TelemetrySchema, ReaderSharesSchemasAcrossEqualScrapes)
{
    // Three scrapes: two with the same identities, then one more series.
    MetricsRegistry registry;
    registry.counter("erms_requests_total", {{"service", "0"}}).add(1);
    std::vector<TelemetrySnapshot> snaps{registry.snapshot(0),
                                         registry.snapshot(1)};
    registry.counter("erms_requests_total", {{"service", "1"}}).add(2);
    snaps.push_back(registry.snapshot(2));

    const auto parsed = telemetry::fromJson(telemetry::toJson(snaps));
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_TRUE(parsed == snaps);
    EXPECT_EQ(parsed[0].schema, parsed[1].schema);
    EXPECT_NE(parsed[1].schema, parsed[2].schema);
}

// ---------------------------------------------------------------------
// Span sampling
// ---------------------------------------------------------------------

TEST(TelemetrySampling, HashSamplingIsDeterministicAndProportional)
{
    int sampled = 0;
    for (RequestId id = 0; id < 20000; ++id) {
        const bool a = hashSampleRequest(id, 0.10);
        const bool b = hashSampleRequest(id, 0.10);
        EXPECT_EQ(a, b);
        sampled += a;
    }
    // 10% +- 1 percentage point over 20k requests.
    EXPECT_NEAR(sampled / 20000.0, 0.10, 0.01);
    EXPECT_TRUE(hashSampleRequest(17, 1.0));
    EXPECT_FALSE(hashSampleRequest(17, 0.0));
}

TEST(TelemetrySampling, SubsetPropertyAcrossProbabilities)
{
    // A request sampled at p stays sampled at every p' > p (head
    // sampling compares one hash against a threshold).
    for (RequestId id = 0; id < 2000; ++id) {
        if (hashSampleRequest(id, 0.05)) {
            EXPECT_TRUE(hashSampleRequest(id, 0.20)) << id;
        }
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

std::vector<TelemetrySnapshot>
makeExportFixture()
{
    MetricsRegistry registry;
    registry.counter("erms_requests_total", {{"service", "0"}}).add(42);
    registry.gauge("erms_host_cpu_util", {{"host", "3"}})
        .set(0.1234567890123456789);
    Histogram &h = registry.histogram(
        "erms_request_latency_ms", {{"service", "0"}}, {1.0, 2.5, 10.0});
    h.observe(0.7);
    h.observe(3.14159265358979);
    h.observe(1000.0);
    std::vector<TelemetrySnapshot> snaps;
    snaps.push_back(registry.snapshot(0));
    registry.counter("erms_requests_total", {{"service", "0"}}).add(13);
    snaps.push_back(registry.snapshot(30000000));
    return snaps;
}

TEST(TelemetryExporters, JsonRoundTripIsExact)
{
    const auto snaps = makeExportFixture();
    const std::string json = telemetry::toJson(snaps);
    const auto parsed = telemetry::fromJson(json);
    ASSERT_EQ(parsed.size(), snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_TRUE(parsed[i] == snaps[i]) << "snapshot " << i;
}

TEST(TelemetryExporters, EmptyDocuments)
{
    EXPECT_TRUE(telemetry::fromJson(telemetry::toJson({})).empty());
}

TEST(TelemetryExporters, NonFiniteValuesRoundTripExactly)
{
    telemetry::SeriesSnapshot nan_gauge;
    nan_gauge.name = "g_nan";
    nan_gauge.kind = MetricKind::Gauge;
    nan_gauge.gaugeValue = std::numeric_limits<double>::quiet_NaN();
    telemetry::SeriesSnapshot inf_gauge;
    inf_gauge.name = "g_inf";
    inf_gauge.kind = MetricKind::Gauge;
    inf_gauge.gaugeValue = std::numeric_limits<double>::infinity();
    telemetry::SeriesSnapshot hist;
    hist.name = "h";
    hist.kind = MetricKind::Histogram;
    hist.count = 2;
    hist.sum = -std::numeric_limits<double>::infinity();
    hist.boundaries = {1.0, 2.0};
    hist.bucketCounts = {1, 1, 0};
    const std::vector<TelemetrySnapshot> snaps{
        TelemetrySnapshot::fromSeries(42, {inf_gauge, nan_gauge, hist})};

    const auto via_json = telemetry::fromJson(telemetry::toJson(snaps));
    ASSERT_EQ(via_json.size(), 1u);
    EXPECT_TRUE(via_json[0] == snaps[0]);
    // The spellings are the explicit Python-json-style tokens, not
    // whatever printf produces for a NaN on this libc.
    EXPECT_NE(telemetry::toJson(snaps).find("NaN"), std::string::npos);
    EXPECT_NE(telemetry::toJson(snaps).find("-Infinity"),
              std::string::npos);
}

TEST(TelemetryExporters, EmptySnapshotSurvivesRoundTrip)
{
    // A scrape that captured zero series must not vanish from the
    // stream: it is written as an empty series array.
    std::vector<TelemetrySnapshot> snaps(2);
    snaps[0].at = 7;
    snaps[1] = makeExportFixture()[0];
    snaps[1].at = 99;

    const auto via_json = telemetry::fromJson(telemetry::toJson(snaps));
    ASSERT_EQ(via_json.size(), 2u);
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_TRUE(via_json[i] == snaps[i]) << "json snapshot " << i;
}

/** toJson(makeExportFixture()) as the previous hand-rolled exporter
 *  wrote it, captured verbatim: old exports must still load. */
constexpr const char *kLegacyExportFixture = R"([
  {"at_us": 0, "series": [
    {"name": "erms_host_cpu_util", "labels": "host=3", "kind": "gauge", "value": 0.12345678901234568},
    {"name": "erms_request_latency_ms", "labels": "service=0", "kind": "histogram", "count": 3, "sum": 1003.8415926535898, "boundaries": [1,2.5,10], "buckets": [1,0,1,1]},
    {"name": "erms_requests_total", "labels": "service=0", "kind": "counter", "value": 42}
  ]},
  {"at_us": 30000000, "series": [
    {"name": "erms_host_cpu_util", "labels": "host=3", "kind": "gauge", "value": 0.12345678901234568},
    {"name": "erms_request_latency_ms", "labels": "service=0", "kind": "histogram", "count": 3, "sum": 1003.8415926535898, "boundaries": [1,2.5,10], "buckets": [1,0,1,1]},
    {"name": "erms_requests_total", "labels": "service=0", "kind": "counter", "value": 55}
  ]}
]
)";

TEST(TelemetryExporters, LegacyExportLoadsToTheSameSnapshots)
{
    const auto snaps = makeExportFixture();
    const auto parsed = telemetry::fromJson(kLegacyExportFixture);
    ASSERT_EQ(parsed.size(), snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_TRUE(parsed[i] == snaps[i]) << "snapshot " << i;
}

/** Message of the ErmsError fromJson throws on `text` ("" if none). */
std::string
fromJsonError(const std::string &text)
{
    try {
        telemetry::fromJson(text);
    } catch (const ErmsError &e) {
        return e.what();
    }
    return "";
}

TEST(TelemetryExporters, CorruptValuesThrowNamingTheirPath)
{
    const std::string good = kLegacyExportFixture;
    const auto replaced = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        return text.replace(text.find(from), from.size(), to);
    };
    const std::pair<std::string, const char *> cases[] = {
        // A counter with trailing junk used to load as its prefix.
        {replaced("\"value\": 42", "\"value\": 0zzz"), "[0].series[2].value"},
        // A gauge with trailing junk used to trip an internal assertion.
        {replaced("0.12345678901234568}", "0.12345678901234568x}"),
         "[0].series[0].value"},
        {replaced("\"host=3\"", "\"host3\""), "[0].series[0].labels"},
        {replaced("\"gauge\"", "\"gauges\""), "[0].series[0].kind"},
        {replaced("\"count\": 3", "\"count\": -3"), "[0].series[1].count"},
        {replaced("\"buckets\"", "\"bucket\""), "[0].series[1].buckets"},
        // Histograms no Histogram could have used to load: a bucket
        // missing, a descending, an empty and a NaN ladder.
        {replaced("[1,2.5,10], \"buckets\": [1,0,1,1]",
                  "[1,2], \"buckets\": [1]"),
         "[0].series[1].buckets"},
        {replaced("[1,2.5,10], \"buckets\": [1,0,1,1]",
                  "[2,1], \"buckets\": [1,0,1]"),
         "[0].series[1].boundaries"},
        {replaced("[1,2.5,10], \"buckets\": [1,0,1,1]",
                  "[], \"buckets\": [1]"),
         "[0].series[1].boundaries"},
        {replaced("[1,2.5,10], \"buckets\": [1,0,1,1]",
                  "[NaN,2], \"buckets\": [1,0,1]"),
         "[0].series[1].boundaries"},
        {replaced("\"at_us\": 0", "\"at_us\": 0, \"at_us\": 1"), "[0].at_us"},
        {good + "]", "document"},
    };
    for (const auto &[text, path] : cases) {
        const std::string message = fromJsonError(text);
        EXPECT_NE(message.find(std::string("json: ") + path),
                  std::string::npos)
            << path << " -> '" << message << "'";
    }
}

TEST(TelemetryExporters, UnsortedOrDuplicateSeriesThrowNamingThePath)
{
    // find() binary-searches the (name, labels) order, so a document
    // breaking it would load into silent lookup misses; the reader
    // rejects it instead.
    const std::string good = telemetry::toJson(makeExportFixture());
    ASSERT_EQ(fromJsonError(good), "");
    const auto mutated = [&](auto mutate) {
        json::Value doc = json::parse(good);
        for (auto &[key, value] : doc.items[1].members)
            if (key == "series")
                mutate(value.items);
        return json::write(doc);
    };
    const std::pair<std::string, const char *> cases[] = {
        {mutated([](auto &series) { std::swap(series[0], series[1]); }),
         "json: [1].series: series 1 "},
        {mutated([](auto &series) {
             series.insert(series.begin() + 2, series[1]);
         }),
         "json: [1].series: series 2 "},
    };
    for (const auto &[text, expected] : cases) {
        const std::string message = fromJsonError(text);
        EXPECT_NE(message.find(expected), std::string::npos)
            << expected << " -> '" << message << "'";
    }
}

// ---------------------------------------------------------------------
// Monitor catalog: the names and labels readers look up
// ---------------------------------------------------------------------

TEST(TelemetryCatalog, ReaderNamesAndLabelsFindTheMonitorsSeries)
{
    using telemetry::hostLabels;
    using telemetry::microserviceLabels;
    using telemetry::serviceLabels;
    telemetry::SimMonitor monitor;
    monitor.onRequestArrival(3);
    monitor.recordDeployment(5, 2, 0, 1);
    monitor.recordHostUtil(7, 0.5, 0.25);
    monitor.takeSnapshot(0);
    const TelemetrySnapshot &snap = monitor.snapshots().back();

    const struct
    {
        const std::string &name;
        Labels labels;
        MetricKind kind;
    } readers[] = {
        {telemetry::kRequestsTotal, serviceLabels(3), MetricKind::Counter},
        {telemetry::kRequestLatencyMs, serviceLabels(3),
         MetricKind::Histogram},
        {telemetry::kMsLatencyMs, microserviceLabels(5),
         MetricKind::Histogram},
        {telemetry::kContainers, microserviceLabels(5), MetricKind::Gauge},
        {telemetry::kHostCpuUtil, hostLabels(7), MetricKind::Gauge},
        {telemetry::kHostMemUtil, hostLabels(7), MetricKind::Gauge},
    };
    for (const auto &reader : readers) {
        const auto series = snap.find(reader.name, reader.labels);
        ASSERT_TRUE(series) << reader.name;
        EXPECT_EQ(series->kind(), reader.kind) << reader.name;
    }

    // The names are the exported catalog (docs/telemetry.md): scrape
    // files and goldens carry them, so no constant may drift.
    std::set<std::string> names;
    for (std::size_t id = 0; id < snap.size(); ++id)
        names.insert(snap[id].name());
    EXPECT_EQ(names, (std::set<std::string>{
                         "erms_busy_threads",
                         "erms_container_crashes_total",
                         "erms_container_restarts_total",
                         "erms_containers",
                         "erms_crash_failures_total",
                         "erms_hedges_total",
                         "erms_host_cpu_util",
                         "erms_host_mem_util",
                         "erms_ms_latency_ms",
                         "erms_queue_depth",
                         "erms_request_failures_total",
                         "erms_request_latency_ms",
                         "erms_requests_total",
                         "erms_responses_total",
                         "erms_retries_total",
                         "erms_sla_violations_total",
                         "erms_slowdown_windows_total",
                         "erms_timeouts_total",
                         "erms_transient_failures_total",
                     }));
}

TEST(TelemetryLabels, LabelIdReadsOnlyWholeUnsignedIds)
{
    using telemetry::kHostLabel;
    using telemetry::kServiceLabel;
    using telemetry::labelId;
    EXPECT_EQ(labelId(telemetry::serviceLabels(0), kServiceLabel), 0u);
    EXPECT_EQ(labelId(telemetry::microserviceLabels(42),
                      telemetry::kMicroserviceLabel),
              42u);
    EXPECT_EQ(labelId(telemetry::hostLabels(kInvalidHost - 1), kHostLabel),
              kInvalidHost - 1);
    EXPECT_EQ(labelId({{"az", "1"}, {"host", "12"}}, kHostLabel), 12u);
    // A missing key gives no id.
    EXPECT_EQ(labelId({}, kHostLabel), std::nullopt);
    EXPECT_EQ(labelId(telemetry::serviceLabels(3), kHostLabel), std::nullopt);
    // Malformed values give no id.
    for (const char *value : {"1x", "-1", "", " 1", "+1", "4294967296"})
        EXPECT_EQ(labelId({{"host", value}}, kHostLabel), std::nullopt)
            << '"' << value << '"';
}

TEST(TelemetryLabels, ShiftHostLabelMovesTheHostId)
{
    Labels labels = telemetry::hostLabels(3);
    telemetry::shiftHostLabel(labels, 0);
    EXPECT_EQ(labels, telemetry::hostLabels(3));
    telemetry::shiftHostLabel(labels, 40);
    EXPECT_EQ(labels, telemetry::hostLabels(43));

    // Only the host label moves; series without one stay as they are.
    Labels mixed{{"az", "1"}, {"host", "2"}, {"zone", "9"}};
    telemetry::shiftHostLabel(mixed, 10);
    EXPECT_EQ(mixed, (Labels{{"az", "1"}, {"host", "12"}, {"zone", "9"}}));
    Labels service = telemetry::serviceLabels(2);
    telemetry::shiftHostLabel(service, 10);
    EXPECT_EQ(service, telemetry::serviceLabels(2));
}

// ---------------------------------------------------------------------
// Scraped view semantics
// ---------------------------------------------------------------------

TEST(TelemetryView, RatesComeFromCounterDeltas)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_EQ(view.observedRate(0), 0.0); // no scrapes yet

    for (int i = 0; i < 10; ++i)
        monitor.onRequestArrival(0);
    monitor.takeSnapshot(0);
    EXPECT_EQ(view.observedRate(0), 0.0); // one scrape: no delta yet

    for (int i = 0; i < 300; ++i)
        monitor.onRequestArrival(0);
    monitor.takeSnapshot(30 * 1000000); // 30 s later
    // 300 arrivals over half a minute -> 600 requests/minute.
    EXPECT_DOUBLE_EQ(view.observedRate(0), 600.0);
}

TEST(TelemetryView, StalenessGrowsBetweenScrapes)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_GT(view.stalenessMs(0), 1e12); // nothing scraped yet
    monitor.takeSnapshot(1000000);
    EXPECT_DOUBLE_EQ(view.stalenessMs(1000000), 0.0);
    EXPECT_DOUBLE_EQ(view.stalenessMs(31 * 1000000), 30000.0);
}

TEST(TelemetryView, ServiceP95FromIntervalBucketDeltas)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    // First interval: fast requests only.
    for (int i = 0; i < 100; ++i)
        monitor.onRequestComplete(0, 10.0, false, true);
    monitor.takeSnapshot(0);
    // Second interval: slow requests. The interval estimate must
    // reflect only the new observations, not the whole history.
    for (int i = 0; i < 100; ++i)
        monitor.onRequestComplete(0, 400.0, true, true);
    monitor.takeSnapshot(30 * 1000000);
    EXPECT_GT(view.serviceP95Ms(0), 200.0);
}

TEST(TelemetryView, ContainerGaugeWithAbsenceSentinel)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_EQ(view.containerCount(7), -1);
    monitor.recordDeployment(7, 12, 3, 40);
    monitor.takeSnapshot(0);
    EXPECT_EQ(view.containerCount(7), 12);
    EXPECT_EQ(view.containerCount(8), -1);
}

// ---------------------------------------------------------------------
// Oracle escape hatch: a controller given a null view reads oracle
// state, so a run with a SimMonitor attached (scrapes and all) must
// behave exactly like one without.
// ---------------------------------------------------------------------

/** One spec per graph of the application, at one SLA and rate. */
std::vector<ServiceSpec>
specsFor(const Application &app, double sla_ms, double rate)
{
    std::vector<ServiceSpec> services;
    for (const auto &graph : app.graphs) {
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = sla_ms;
        spec.workload = rate;
        services.push_back(spec);
    }
    return services;
}

void
addWorkloads(Simulation &sim, const std::vector<ServiceSpec> &services)
{
    for (const ServiceSpec &spec : services) {
        ServiceWorkload svc;
        svc.id = spec.id;
        svc.graph = spec.graph;
        svc.slaMs = spec.slaMs;
        svc.rate = spec.workload;
        sim.addService(svc);
    }
}

struct DynamicRunResult
{
    std::uint64_t requestsCompleted = 0;
    std::vector<double> latencies;
};

DynamicRunResult
runSeededDynamic(const MicroserviceCatalog &catalog, const Application &app,
                 const ErmsController &controller, bool with_monitor,
                 std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    telemetry::SimMonitor monitor;
    if (with_monitor)
        sim.setMonitor(&monitor);
    const std::vector<ServiceSpec> services = specsFor(app, 300.0, 8000.0);
    addWorkloads(sim, services);
    const GlobalPlan initial =
        controller.plan(services, Interference{0.2, 0.2});
    sim.applyPlan(initial);
    sim.setMinuteCallback(
        controller.makeAutoscaler(services, /*view=*/nullptr));
    sim.run();

    DynamicRunResult result;
    result.requestsCompleted = sim.metrics().requestsCompleted;
    for (const auto &graph : app.graphs) {
        auto it = sim.metrics().endToEndMs.find(graph.service());
        if (it == sim.metrics().endToEndMs.end())
            continue;
        result.latencies.insert(result.latencies.end(),
                                it->second.samples().begin(),
                                it->second.samples().end());
    }
    return result;
}

TEST(TelemetryOracleMode, EscapeHatchReproducesOracleRunExactly)
{
    MicroserviceCatalog catalog;
    // Application factories attach bootstrap analytic latency models,
    // so the controller can plan without an offline profiling pass.
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    for (std::uint64_t seed : {3u, 19u}) {
        const DynamicRunResult oracle =
            runSeededDynamic(catalog, app, controller, false, seed);
        const DynamicRunResult hatch =
            runSeededDynamic(catalog, app, controller, true, seed);

        EXPECT_EQ(oracle.requestsCompleted, hatch.requestsCompleted)
            << "seed " << seed;
        EXPECT_EQ(oracle.latencies, hatch.latencies) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// The simulation is the oracle view: with no view a controller reads
// the Simulation through the same TelemetryView interface, answered as
// of the minute that just ended.
// ---------------------------------------------------------------------

TEST(OracleView, SimulationAnswersFromTheEndedMinute)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});
    const std::vector<ServiceSpec> services = specsFor(app, 300.0, 8000.0);

    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = 7;
    Simulation sim(catalog, config);
    addWorkloads(sim, services);
    sim.applyPlan(controller.plan(services, Interference{0.2, 0.2}));
    const telemetry::TelemetryView &view = sim;

    // No minute has ended yet.
    for (const ServiceSpec &svc : services)
        EXPECT_EQ(view.serviceP95Ms(svc.id), 0.0);

    int p95s_seen = 0;
    int tails_seen = 0;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        const auto m = static_cast<std::uint64_t>(minute);
        EXPECT_EQ(view.stalenessMs(s.now()), 0.0);
        for (const ServiceSpec &svc : services) {
            const auto it = s.metrics().endToEndByMinute.find(svc.id);
            const double p95 = it == s.metrics().endToEndByMinute.end()
                                   ? 0.0
                                   : it->second.window(m).p95();
            EXPECT_TRUE(sameBits(view.serviceP95Ms(svc.id), p95))
                << "minute " << minute << " service " << svc.id;
            p95s_seen += p95 > 0.0;
        }
        for (const auto &graph : app.graphs) {
            for (MicroserviceId id : graph.nodes()) {
                double tail = 0.0; // no record this minute
                for (const ProfilingRecord &record : s.metrics().profiling)
                    if (record.minute == m && record.microservice == id)
                        tail = record.tailLatencyMs;
                EXPECT_TRUE(sameBits(view.microserviceTailMs(id), tail))
                    << "minute " << minute << " microservice " << id;
                tails_seen += tail > 0.0;
            }
        }
        EXPECT_EQ(view.microserviceTailMs(kInvalidMicroservice), 0.0);
    });
    sim.run();

    // Every ended minute had samples: both services, all four nodes.
    EXPECT_EQ(p95s_seen, 4 * 2);
    EXPECT_EQ(tails_seen, 4 * 4);
}

using ControllerFactory = std::function<std::function<void(Simulation &, int)>(
    std::shared_ptr<const telemetry::TelemetryView>)>;

/** Container timeline of a run from two containers per microservice
 *  under the controller the factory makes for the given view. */
std::unordered_map<MicroserviceId,
                   std::vector<std::pair<std::uint64_t, int>>>
controlledTimeline(const MicroserviceCatalog &catalog,
                   const Application &app,
                   const std::vector<ServiceSpec> &services,
                   const ControllerFactory &make, bool sim_as_view,
                   std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = 5;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    addWorkloads(sim, services);
    for (const auto &graph : app.graphs)
        for (MicroserviceId id : graph.nodes())
            sim.setContainerCount(id, 2);
    std::shared_ptr<const telemetry::TelemetryView> view;
    if (sim_as_view) // non-owning: the simulation owns the callback
        view = std::shared_ptr<const telemetry::TelemetryView>(
            std::shared_ptr<void>(), &sim);
    sim.setMinuteCallback(make(view));
    sim.run();
    return sim.metrics().containerTimeline;
}

TEST(OracleView, ControllersGivenTheSimulationDecideAsWithNoView)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});
    // An 80 ms SLA is violated from the first minute, so Firm scales.
    const std::vector<ServiceSpec> services = specsFor(app, 80.0, 20000.0);
    const std::vector<std::pair<std::string, ControllerFactory>> controllers{
        {"erms",
         [&](std::shared_ptr<const telemetry::TelemetryView> view) {
             return controller.makeAutoscaler(services, std::move(view));
         }},
        {"firm",
         [&](std::shared_ptr<const telemetry::TelemetryView> view) {
             return makeFirmReactiveController(catalog, services,
                                               std::move(view));
         }},
    };

    for (const auto &[name, make] : controllers) {
        for (std::uint64_t seed : {3u, 19u}) {
            const auto alone =
                controlledTimeline(catalog, app, services, make, false, seed);
            const auto self =
                controlledTimeline(catalog, app, services, make, true, seed);
            EXPECT_EQ(alone, self) << name << " seed " << seed;
            bool scaled = false;
            for (const auto &[ms, timeline] : alone)
                for (const auto &[minute, count] : timeline)
                    scaled |= count != 2;
            EXPECT_TRUE(scaled) << name << " seed " << seed;
        }
    }
}

} // namespace
} // namespace erms
