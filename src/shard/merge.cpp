#include "merge.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "telemetry/monitor.hpp"

namespace erms::shard {

using telemetry::SeriesSchema;
using telemetry::TelemetrySnapshot;

SchemaUnion
unionSchemas(std::vector<std::shared_ptr<const SeriesSchema>> parts,
             const ShardPlan &plan)
{
    ERMS_ASSERT_MSG(parts.size() ==
                        static_cast<std::size_t>(plan.shardCount),
                    "one schema per shard required");
    struct Item
    {
        SeriesSchema::Series series;
        int part = 0;
        std::size_t id = 0;
    };
    std::vector<Item> items;
    for (int k = 0; k < plan.shardCount; ++k) {
        if (!parts[k])
            continue;
        const SeriesSchema &schema = *parts[k];
        for (std::size_t id = 0; id < schema.size(); ++id) {
            Item &item = items.emplace_back(Item{schema[id], k, id});
            telemetry::shiftHostLabel(
                item.series.labels,
                static_cast<HostId>(plan.shards[k].hostOffset));
        }
    }
    // Stable, so colliding series keep shard index order; each run of
    // equal keys then becomes one merged id.
    const auto before = [](const Item &a, const Item &b) {
        return std::tie(a.series.name, a.series.labels) <
               std::tie(b.series.name, b.series.labels);
    };
    std::stable_sort(items.begin(), items.end(), before);

    SchemaUnion u;
    u.target.resize(parts.size());
    for (int k = 0; k < plan.shardCount; ++k)
        u.target[k].resize(parts[k] ? parts[k]->size() : 0);
    std::vector<SeriesSchema::Series> merged;
    for (Item &item : items) {
        if (!merged.empty() &&
            std::tie(merged.back().name, merged.back().labels) ==
                std::tie(item.series.name, item.series.labels)) {
            ERMS_ASSERT_MSG(merged.back().kind == item.series.kind,
                            "shard series collide with mismatched kinds");
            ERMS_ASSERT_MSG(
                merged.back().boundaries == item.series.boundaries,
                "shard histograms collide with mismatched buckets");
        } else {
            merged.push_back(std::move(item.series));
            u.firstPart.push_back(item.part);
        }
        u.target[item.part][item.id] = merged.size() - 1;
    }
    u.schema = std::make_shared<const SeriesSchema>(std::move(merged));
    u.parts = std::move(parts);
    return u;
}

TelemetrySnapshot
foldGeneration(const SchemaUnion &u,
               const std::vector<const TelemetrySnapshot *> &parts)
{
    ERMS_ASSERT_MSG(parts.size() == u.parts.size(),
                    "one snapshot per shard required");
    TelemetrySnapshot merged;
    merged.schema = u.schema;
    merged.values.resize(u.schema->valueCount());
    for (std::size_t k = 0; k < parts.size(); ++k) {
        const TelemetrySnapshot &part = *parts[k];
        ERMS_ASSERT_MSG(part.schema == u.parts[k],
                        "snapshot schema differs from the union's part");
        merged.at = std::max(merged.at, part.at);
        for (std::size_t id = 0; id < part.size(); ++id) {
            const std::size_t t = u.target[k][id];
            const auto src = part[id].words();
            const auto dst = merged.words(t);
            if (u.firstPart[t] == static_cast<int>(k))
                std::copy_n(src.data(), src.size(), dst.data());
            else
                dst.add(src);
        }
    }
    return merged;
}

TelemetrySnapshot
TelemetryMerger::merge(const std::vector<const TelemetrySnapshot *> &parts,
                       const ShardPlan &plan)
{
    std::vector<std::shared_ptr<const SeriesSchema>> schemas;
    schemas.reserve(parts.size());
    for (const TelemetrySnapshot *part : parts) {
        ERMS_ASSERT(part != nullptr);
        schemas.push_back(part->schema);
    }
    if (schemas != union_.parts) {
        union_ = unionSchemas(std::move(schemas), plan);
        ++unionsBuilt_;
    }
    return foldGeneration(union_, parts);
}

TelemetrySnapshot
mergeTelemetrySnapshots(const std::vector<const TelemetrySnapshot *> &parts,
                        const ShardPlan &plan)
{
    return TelemetryMerger().merge(parts, plan);
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
