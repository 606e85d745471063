/**
 * @file
 * Scrape-snapshot export: a JSON array of scrape objects written and
 * parsed through the field tables below (common/json.hpp), which the
 * campaign archive's scrape history reuses. Doubles round-trip exactly,
 * non-finite ones as NaN / Infinity / -Infinity. A scrape's series
 * must be strictly ascending by (name, labels), and a histogram needs a
 * non-empty, strictly ascending, NaN-free ladder with one bucket more
 * than boundaries. Labels travel as one "key=value;key=value" string,
 * so label keys and values must not contain '=' or ';' (the simulator's
 * metric catalog satisfies this by construction).
 *
 * Files hold every series expanded: the writer spells each schema id
 * out as its name and labels, and the reader builds a schema per scrape
 * and then shares it across consecutive scrapes listing the same
 * identities (shareSchemas), as a registry would have.
 */

#ifndef ERMS_TELEMETRY_EXPORTERS_HPP
#define ERMS_TELEMETRY_EXPORTERS_HPP

#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "telemetry/registry.hpp"

namespace erms::telemetry {

inline constexpr json::Name<MetricKind> kMetricKindNames[] = {
    {MetricKind::Counter, "counter"},
    {MetricKind::Gauge, "gauge"},
    {MetricKind::Histogram, "histogram"},
};

/** Inverse of labelsToString. @throws ErmsError on a pair without '='. */
Labels labelsFromString(const std::string &text);

/** Only the fields of the series' kind are stored. The reader rejects a
 *  histogram whose ladder or bucket count no Histogram could have. */
template <class V>
void
describe(V &v, SeriesSnapshot &s)
{
    v.field("name", s.name);
    v.field("labels", s.labels, labelsToString, labelsFromString);
    v.field("kind", s.kind, kMetricKindNames);
    switch (s.kind) {
      case MetricKind::Counter:
        v.field("value", s.counterValue);
        break;
      case MetricKind::Gauge:
        v.field("value", s.gaugeValue);
        break;
      case MetricKind::Histogram:
        v.field("count", s.count);
        v.field("sum", s.sum);
        v.field("boundaries", s.boundaries);
        v.check("boundaries", [&] { return boundariesProblem(s.boundaries); });
        v.field("buckets", s.bucketCounts);
        v.check("buckets", [&] { return bucketsProblem(s); });
        break;
    }
}

/** A scrape travels with its series expanded. The reader rejects series
 *  out of (name, labels) order, which TelemetrySnapshot::find would
 *  otherwise silently miss. */
template <class V>
void
describe(V &v, TelemetrySnapshot &s)
{
    constexpr bool writing = std::is_same_v<V, json::Writer>;
    std::vector<SeriesSnapshot> series;
    if constexpr (writing)
        series = s.expand();
    v.field("at_us", s.at);
    v.field("series", series);
    v.check("series", [&] { return seriesOrderProblem(series); });
    if constexpr (!writing)
        s = TelemetrySnapshot::fromSeries(s.at, std::move(series));
}

/** Point every scrape whose identities equal its predecessor's at the
 *  predecessor's schema, so a stream read from a file shares schemas
 *  the way the registry that took it did. */
void shareSchemas(std::vector<TelemetrySnapshot> &snapshots);

/** JSON array of scrape objects. */
std::string toJson(const std::vector<TelemetrySnapshot> &snapshots);

/** Parse a toJson() document back into snapshots, consecutive scrapes
 *  with equal identities sharing one schema.
 *  @throws ErmsError naming the key path of the first problem. */
std::vector<TelemetrySnapshot> fromJson(const std::string &json);

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_EXPORTERS_HPP
