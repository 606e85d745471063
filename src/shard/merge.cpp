#include "merge.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace erms::shard {

namespace {

using telemetry::Labels;
using telemetry::MetricKind;
using telemetry::seriesBefore;
using telemetry::SeriesSnapshot;
using telemetry::TelemetrySnapshot;

/** Rewrite a shard-local {host=h} label to the cluster-wide id. */
void
remapHostLabels(Labels &labels, int host_offset)
{
    if (host_offset == 0)
        return;
    for (auto &[key, value] : labels) {
        if (key == "host") {
            const long local = std::stol(value);
            value = std::to_string(local + host_offset);
        }
    }
}

/** Accumulate `part` into `into` (same name/labels/kind). */
void
accumulateSeries(SeriesSnapshot &into, const SeriesSnapshot &part)
{
    ERMS_ASSERT_MSG(into.kind == part.kind,
                    "shard series collide with mismatched kinds");
    switch (into.kind) {
    case MetricKind::Counter:
        into.counterValue += part.counterValue;
        break;
    case MetricKind::Gauge:
        // Only cluster-additive gauges (the label-free fault-schedule
        // sizes) can collide across shards; owned-entity gauges carry
        // service/microservice/host labels and stay disjoint.
        into.gaugeValue += part.gaugeValue;
        break;
    case MetricKind::Histogram:
        ERMS_ASSERT_MSG(into.boundaries == part.boundaries,
                        "shard histograms collide with mismatched buckets");
        for (std::size_t b = 0; b < into.bucketCounts.size(); ++b)
            into.bucketCounts[b] += part.bucketCounts[b];
        into.count += part.count;
        into.sum += part.sum;
        break;
    }
}

} // namespace

telemetry::TelemetrySnapshot
mergeTelemetrySnapshots(const std::vector<const TelemetrySnapshot *> &parts,
                        const ShardPlan &plan)
{
    ERMS_ASSERT_MSG(parts.size() ==
                        static_cast<std::size_t>(plan.shardCount),
                    "one snapshot per shard required");
    TelemetrySnapshot merged;
    std::size_t total = 0;
    for (const TelemetrySnapshot *part : parts) {
        ERMS_ASSERT(part != nullptr);
        total += part->series.size();
    }
    std::vector<SeriesSnapshot> &series = merged.series;
    series.reserve(total);
    for (int k = 0; k < plan.shardCount; ++k) {
        merged.at = std::max(merged.at, parts[k]->at);
        const int offset = plan.shards[k].hostOffset;
        for (const SeriesSnapshot &s : parts[k]->series)
            remapHostLabels(series.emplace_back(s).labels, offset);
    }
    // Stable, so colliding series keep shard index order; each run of
    // equal keys then folds into its first entry in that order.
    std::stable_sort(series.begin(), series.end(), seriesBefore);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (kept > 0 && !seriesBefore(series[kept - 1], series[i])) {
            accumulateSeries(series[kept - 1], series[i]);
        } else {
            if (kept != i)
                series[kept] = std::move(series[i]);
            ++kept;
        }
    }
    series.resize(kept);
    return merged;
}

ClusterSnapshot
mergeClusterSnapshots(const std::vector<ClusterSnapshot> &parts,
                      const ShardPlan &plan)
{
    ERMS_ASSERT_MSG(parts.size() ==
                        static_cast<std::size_t>(plan.shardCount),
                    "one cluster snapshot per shard required");
    ClusterSnapshot merged;
    bool first = true;
    for (int k = 0; k < plan.shardCount; ++k) {
        const ClusterSnapshot &part = parts[k];
        merged.at = std::max(merged.at, part.at);
        merged.sequence = first
                              ? part.sequence
                              : std::min(merged.sequence, part.sequence);
        first = false;
        const HostId offset =
            static_cast<HostId>(plan.shards[k].hostOffset);
        for (ClusterSnapshot::HostSample host : part.hosts) {
            host.id += offset;
            merged.hosts.push_back(host);
        }
        for (const ClusterSnapshot::DeploymentSample &dep :
             part.deployments)
            merged.deployments.push_back(dep);
    }
    std::sort(merged.hosts.begin(), merged.hosts.end(),
              [](const ClusterSnapshot::HostSample &a,
                 const ClusterSnapshot::HostSample &b) {
                  return a.id < b.id;
              });
    std::sort(merged.deployments.begin(), merged.deployments.end(),
              [](const ClusterSnapshot::DeploymentSample &a,
                 const ClusterSnapshot::DeploymentSample &b) {
                  return a.ms < b.ms;
              });
    return merged;
}

SimMetrics
mergeMetrics(const std::vector<const SimMetrics *> &parts)
{
    SimMetrics merged;
    for (const SimMetrics *part : parts) {
        ERMS_ASSERT(part != nullptr);
        // Per-service / per-microservice tables are disjoint unions:
        // every id is owned by exactly one shard.
        for (const auto &[service, samples] : part->endToEndMs) {
            ERMS_ASSERT_MSG(merged.endToEndMs.find(service) ==
                                merged.endToEndMs.end(),
                            "service latency tables overlap across shards");
            merged.endToEndMs.emplace(service, samples);
        }
        for (const auto &[service, windows] : part->endToEndByMinute)
            merged.endToEndByMinute.emplace(service, windows);
        for (const auto &[ms, timeline] : part->containerTimeline)
            merged.containerTimeline.emplace(ms, timeline);
        for (const auto &[service, failed] : part->failedByService)
            merged.failedByService[service] += failed;
        merged.profiling.insert(merged.profiling.end(),
                                part->profiling.begin(),
                                part->profiling.end());

        merged.requestsGenerated += part->requestsGenerated;
        merged.requestsCompleted += part->requestsCompleted;
        merged.requestsFailed += part->requestsFailed;
        merged.eventsDispatched += part->eventsDispatched;

        merged.faults.containerCrashes += part->faults.containerCrashes;
        merged.faults.containerRestarts += part->faults.containerRestarts;
        merged.faults.slowdownWindows += part->faults.slowdownWindows;
        merged.faults.firstAttempts += part->faults.firstAttempts;
        merged.faults.callRetries += part->faults.callRetries;
        merged.faults.hedgesLaunched += part->faults.hedgesLaunched;
        merged.faults.hedgeWins += part->faults.hedgeWins;
        merged.faults.callTimeouts += part->faults.callTimeouts;
        merged.faults.transientFailures += part->faults.transientFailures;
        merged.faults.crashFailures += part->faults.crashFailures;
        merged.faults.callsFailed += part->faults.callsFailed;
    }
    // Profiling records re-sort into the (minute, microservice) order a
    // single simulation emits, so sharded profiling sweeps read the
    // same way.
    std::stable_sort(merged.profiling.begin(), merged.profiling.end(),
                     [](const ProfilingRecord &a, const ProfilingRecord &b) {
                         if (a.minute != b.minute)
                             return a.minute < b.minute;
                         return a.microservice < b.microservice;
                     });
    return merged;
}

} // namespace erms::shard
