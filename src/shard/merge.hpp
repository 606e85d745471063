/**
 * @file
 * Cluster-wide merging of per-shard state: telemetry snapshots and
 * simulation metrics from K independent shard simulations combine into
 * one view of the whole cluster.
 *
 * Telemetry values fold through SeriesValues::add, the registry's own
 * definition of how two series' words combine (property-pinned
 * associative and commutative); run metrics merge as disjoint unions of
 * per-service and per-microservice tables, concatenated profiling
 * records and added scalar counters. Entity series are disjoint across
 * shards, so the merged view is what one monitor observing all shards
 * would have recorded. Host ids are shard-local inside each Simulation;
 * merging shifts them to cluster-wide ids by the shard's hostOffset
 * (docs/sharding.md has the full dataflow diagram).
 *
 * Determinism: merges iterate shards in index order and sort outputs by
 * the same (name, labels) / id keys the unsharded paths use, so the
 * merged view is byte-stable across runner worker counts. Telemetry
 * identities merge once per schema version (SchemaUnion); each scrape
 * generation then only folds value columns.
 */

#ifndef ERMS_SHARD_MERGE_HPP
#define ERMS_SHARD_MERGE_HPP

#include <memory>
#include <vector>

#include "shard/partition.hpp"
#include "sim/metrics.hpp"
#include "telemetry/registry.hpp"

namespace erms::shard {

/**
 * How K per-shard schemas combine into one cluster-wide schema:
 *  - series labelled {host=h} are relabelled to h + hostOffset[k], so
 *    shard-local gauges become disjoint cluster series;
 *  - service/microservice series are disjoint by construction (each id
 *    is owned by exactly one shard) and pass through;
 *  - series colliding on (name, labels) — only the label-free
 *    fault-schedule gauges in the simulator's catalog — share one
 *    merged id.
 * The identities are concatenated in shard index order, stable-sorted
 * by (name, labels) — the order MetricsRegistry::snapshot emits — and
 * each run of equal keys becomes one merged id, so building a union
 * costs O(S log S) for S series in all. It depends on the part schemas
 * alone, so it is built once per tuple of part schema versions.
 */
struct SchemaUnion
{
    /** The part schemas, in shard index order (held, so no other
     *  schema can take their addresses while the union is cached). */
    std::vector<std::shared_ptr<const telemetry::SeriesSchema>> parts;
    std::shared_ptr<const telemetry::SeriesSchema> schema;
    /** Per part, per part id: the merged id. */
    std::vector<std::vector<std::size_t>> target;
    /** Per merged id: the first shard contributing it, whose values are
     *  copied; later shards' values add. */
    std::vector<int> firstPart;
};

/** Build the union of `parts` (one schema per shard, shard index
 *  order); a null schema counts as empty. */
SchemaUnion
unionSchemas(std::vector<std::shared_ptr<const telemetry::SeriesSchema>> parts,
             const ShardPlan &plan);

/**
 * Merge one scrape generation (entry k from shard k) whose schemas are
 * `u.parts`: allocate the merged values, then fold each part's values
 * in shard index order. The first shard of a merged id copies its
 * words; later ones fold in by SeriesValues::add (every colliding
 * gauge is cluster-additive). The result is stamped with the newest
 * shard scrape time.
 */
telemetry::TelemetrySnapshot
foldGeneration(const SchemaUnion &u,
               const std::vector<const telemetry::TelemetrySnapshot *> &parts);

/**
 * Merges scrape generations, rebuilding the union schema only when a
 * part's schema version changes, so consecutive merged snapshots share
 * one schema. Single-threaded: the coordinator merges between rounds.
 */
class TelemetryMerger
{
  public:
    telemetry::TelemetrySnapshot
    merge(const std::vector<const telemetry::TelemetrySnapshot *> &parts,
          const ShardPlan &plan);

    /** Union schemas built so far. */
    std::size_t unionsBuilt() const { return unionsBuilt_; }

  private:
    SchemaUnion union_;
    std::size_t unionsBuilt_ = 0;
};

/** One generation merged on its own: foldGeneration over a fresh
 *  unionSchemas of the parts' schemas. */
telemetry::TelemetrySnapshot
mergeTelemetrySnapshots(
    const std::vector<const telemetry::TelemetrySnapshot *> &parts,
    const ShardPlan &plan);

/**
 * Merge per-shard run metrics into whole-cluster metrics: per-service
 * and per-microservice tables are disjoint unions, profiling records
 * re-sort by (minute, microservice), scalar and fault counters add.
 */
SimMetrics mergeMetrics(const std::vector<const SimMetrics *> &parts);

} // namespace erms::shard

#endif // ERMS_SHARD_MERGE_HPP
