#include "view.hpp"

#include <limits>

namespace erms::telemetry {

ScrapedTelemetryView::ScrapedTelemetryView(const SimMonitor &monitor)
    : monitor_(&monitor)
{
}

const TelemetrySnapshot *
SnapshotTelemetryView::latest() const
{
    const auto &snaps = visibleSnapshots();
    return snaps.empty() ? nullptr : &snaps.back();
}

const TelemetrySnapshot *
SnapshotTelemetryView::previous() const
{
    const auto &snaps = visibleSnapshots();
    return snaps.size() < 2 ? nullptr : &snaps[snaps.size() - 2];
}

double
SnapshotTelemetryView::observedRate(ServiceId service) const
{
    const TelemetrySnapshot *now = latest();
    const TelemetrySnapshot *prev = previous();
    if (now == nullptr || prev == nullptr || now->at <= prev->at)
        return 0.0;
    const Labels labels = serviceLabels(service);
    const auto cur_s = now->find(kRequestsTotal, labels);
    if (!cur_s)
        return 0.0;
    const auto prev_s = prev->find(kRequestsTotal, labels);
    const std::uint64_t before = prev_s ? prev_s->counterValue() : 0;
    const std::uint64_t current = cur_s->counterValue();
    if (current <= before)
        return 0.0; // no arrivals, or a counter regression (reset)
    const double window_min =
        toMillis(now->at - prev->at) / (60.0 * 1000.0);
    return static_cast<double>(current - before) / window_min;
}

Interference
SnapshotTelemetryView::clusterInterference() const
{
    Interference avg;
    const TelemetrySnapshot *now = latest();
    if (now == nullptr)
        return avg;
    const auto cpu_series = now->named(kHostCpuUtil);
    const std::size_t hosts = cpu_series.size();
    if (hosts == 0)
        return avg;
    double cpu = 0.0, mem = 0.0;
    for (const SeriesRef s : cpu_series)
        cpu += s.gaugeValue();
    for (const SeriesRef s : now->named(kHostMemUtil))
        mem += s.gaugeValue();
    avg.cpuUtil = cpu / static_cast<double>(hosts);
    avg.memUtil = mem / static_cast<double>(hosts);
    return avg;
}

double
SnapshotTelemetryView::histogramDeltaQuantile(const std::string &name,
                                              const Labels &labels,
                                              double q) const
{
    const TelemetrySnapshot *now = latest();
    if (now == nullptr)
        return 0.0;
    // Only a histogram has buckets, and every histogram's ladder is
    // valid (registries and fromSeries both enforce it).
    const auto cur_s = now->find(name, labels);
    if (!cur_s || cur_s->kind() != MetricKind::Histogram)
        return 0.0;
    const auto cur_buckets = cur_s->bucketCounts();
    std::vector<std::uint64_t> delta(cur_buckets.begin(), cur_buckets.end());
    if (const TelemetrySnapshot *prev = previous()) {
        const auto prev_s = prev->find(name, labels);
        const auto prev_buckets =
            prev_s ? prev_s->bucketCounts() : std::span<const std::uint64_t>{};
        if (prev_buckets.size() == delta.size()) {
            // Clamp bucket regressions to an empty delta instead of
            // letting the subtraction wrap: a perturbed pipeline can
            // report fewer cumulative observations than the previous
            // scrape (partial scrape, restarted exporter), and a wrapped
            // uint64 would turn into an astronomically heavy bucket.
            for (std::size_t i = 0; i < delta.size(); ++i)
                delta[i] -= std::min(delta[i], prev_buckets[i]);
        }
    }
    return histogramQuantile(cur_s->boundaries(), delta, q);
}

double
SnapshotTelemetryView::serviceP95Ms(ServiceId service) const
{
    return histogramDeltaQuantile(kRequestLatencyMs, serviceLabels(service),
                                  0.95);
}

double
SnapshotTelemetryView::microserviceTailMs(MicroserviceId ms) const
{
    return histogramDeltaQuantile(kMsLatencyMs, microserviceLabels(ms), 0.95);
}

int
SnapshotTelemetryView::containerCount(MicroserviceId ms) const
{
    const TelemetrySnapshot *now = latest();
    if (now == nullptr)
        return -1;
    const auto s = now->find(kContainers, microserviceLabels(ms));
    if (!s)
        return -1;
    return static_cast<int>(s->gaugeValue());
}

double
SnapshotTelemetryView::stalenessMs(SimTime now) const
{
    const TelemetrySnapshot *snap = latest();
    if (snap == nullptr)
        return std::numeric_limits<double>::max();
    return snap->at >= now ? 0.0 : toMillis(now - snap->at);
}

} // namespace erms::telemetry
