/**
 * @file
 * Cluster-wide merging of per-shard state: telemetry snapshots, cluster
 * snapshots and simulation metrics from K independent shard simulations
 * combine into one view of the whole cluster.
 *
 * Every merge rides the library's already-proven-associative paths —
 * counter addition, Histogram bucket addition (property-pinned
 * associative/commutative), StreamingStats::merge (Chan's parallel
 * update), SampleSet concatenation — so the merged result is exactly
 * what one monitor observing all shards would have recorded. Host ids
 * are shard-local inside each Simulation; merging remaps them to
 * cluster-wide ids by the shard's hostOffset (docs/sharding.md has the
 * full dataflow diagram).
 *
 * Determinism: merges iterate shards in index order and sort outputs by
 * the same (name, labels) / id keys the unsharded paths use, so the
 * merged view is byte-stable across runner worker counts.
 */

#ifndef ERMS_SHARD_MERGE_HPP
#define ERMS_SHARD_MERGE_HPP

#include <vector>

#include "shard/partition.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"

namespace erms::shard {

/**
 * Merge one scrape generation of per-shard telemetry snapshots (entry k
 * from shard k, shard index order) into a cluster-wide snapshot:
 *  - series labelled {host=h} are relabelled to h + hostOffset[k], so
 *    shard-local gauges become disjoint cluster series;
 *  - service/microservice series are disjoint by construction (each id
 *    is owned by exactly one shard) and pass through;
 *  - series colliding on (name, labels) — only the label-free
 *    fault-schedule gauges in the simulator's catalog — combine
 *    kind-wise in shard index order: counters and histogram
 *    buckets/sums add, gauges add (every colliding gauge is
 *    cluster-additive).
 * The parts are concatenated (each series copied once), stable-sorted
 * by (name, labels) — the order MetricsRegistry::snapshot emits — and
 * each run of equal keys folded, so one generation costs
 * O(S log S) for S series in all. The result is stamped with the
 * newest shard scrape time.
 */
telemetry::TelemetrySnapshot
mergeTelemetrySnapshots(
    const std::vector<const telemetry::TelemetrySnapshot *> &parts,
    const ShardPlan &plan);

/**
 * Merge per-shard cluster snapshots into a whole-cluster snapshot:
 * hosts remap by hostOffset and concatenate (id ascending), deployment
 * samples concatenate (microservice ascending; disjoint across shards).
 * `sequence` is the minimum across shards (0 until every shard has
 * published) and `at` the newest shard publish time.
 */
ClusterSnapshot
mergeClusterSnapshots(const std::vector<ClusterSnapshot> &parts,
                      const ShardPlan &plan);

/**
 * Merge per-shard run metrics into whole-cluster metrics: per-service
 * and per-microservice tables are disjoint unions, profiling records
 * re-sort by (minute, microservice), scalar and fault counters add.
 */
SimMetrics mergeMetrics(const std::vector<const SimMetrics *> &parts);

} // namespace erms::shard

#endif // ERMS_SHARD_MERGE_HPP
