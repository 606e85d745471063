/**
 * @file
 * Scrape-snapshot export: a JSON array of scrape objects written and
 * parsed through the field tables below (common/json.hpp), which the
 * campaign archive's scrape history reuses. Doubles round-trip exactly,
 * non-finite ones as NaN / Infinity / -Infinity. A scrape's series
 * must be strictly ascending by (name, labels). Labels travel as one
 * "key=value;key=value" string, so label keys and values must not
 * contain '=' or ';' (the simulator's metric catalog satisfies this by
 * construction).
 */

#ifndef ERMS_TELEMETRY_EXPORTERS_HPP
#define ERMS_TELEMETRY_EXPORTERS_HPP

#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/registry.hpp"

namespace erms::telemetry {

inline constexpr json::Name<MetricKind> kMetricKindNames[] = {
    {MetricKind::Counter, "counter"},
    {MetricKind::Gauge, "gauge"},
    {MetricKind::Histogram, "histogram"},
};

/** "key=value;key=value". */
std::string labelsToString(const Labels &labels);

/** Inverse of labelsToString. @throws ErmsError on a pair without '='. */
Labels labelsFromString(const std::string &text);

/** Only the fields of the series' kind are stored. */
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
        v.field("buckets", s.bucketCounts);
        break;
    }
}

/** Why `series` is not strictly ascending by seriesBefore (naming the
 *  first duplicated or out-of-order entry), or an empty string. */
std::string seriesOrderProblem(const std::vector<SeriesSnapshot> &series);

/** The reader rejects series out of (name, labels) order, which
 *  TelemetrySnapshot::find would otherwise silently miss. */
template <class V>
void
describe(V &v, TelemetrySnapshot &s)
{
    v.field("at_us", s.at);
    v.field("series", s.series);
    v.check("series", [&] { return seriesOrderProblem(s.series); });
}

/** JSON array of scrape objects. */
std::string toJson(const std::vector<TelemetrySnapshot> &snapshots);

/** Parse a toJson() document back into snapshots.
 *  @throws ErmsError naming the key path of the first problem. */
std::vector<TelemetrySnapshot> fromJson(const std::string &json);

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_EXPORTERS_HPP
