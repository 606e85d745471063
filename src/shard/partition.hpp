/**
 * @file
 * Shard partitioning: split a service catalog and a host fleet into K
 * shards so that each shard can run as an independent `Simulation`
 * (the scale-out path to the paper's production setting — 500+ online
 * services on thousands of hosts — which one event loop cannot hold).
 *
 * Services sharing a microservice must land in the same shard: sharing
 * is exactly the interaction Erms models (priority scheduling at shared
 * nodes, §5.3.2), so the partition operates on connected components of
 * the service–microservice bipartite graph. Components are bin-packed
 * onto shards by weight (distinct microservice count) using LPT with
 * deterministic tie-breaks, and the host fleet is divided
 * weight-proportionally (largest remainder, every shard >= 1 host).
 *
 * Determinism contract (pinned by tests/test_shard.cpp and the golden
 * differential): planShards is a pure function of its inputs — no RNG,
 * no hash-order dependence — and shard seeds derive from the base seed
 * via deriveRunSeed(base, shard_index), except K == 1 which keeps the
 * base seed verbatim so a single-shard run is byte-identical to the
 * unsharded simulator. See docs/sharding.md.
 */

#ifndef ERMS_SHARD_PARTITION_HPP
#define ERMS_SHARD_PARTITION_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "graph/dependency_graph.hpp"
#include "sim/simulation.hpp"

namespace erms::shard {

/** One shard of the partitioned cluster. */
struct ShardSpec
{
    /** Shard index in [0, shardCount). */
    int index = 0;
    /** Positions into the input service list (ascending), preserving
     *  the caller's registration order within the shard. */
    std::vector<std::size_t> services;
    /** Microservices owned by this shard (id ascending). */
    std::vector<MicroserviceId> microservices;
    /** Hosts assigned to this shard (its Simulation's hostCount). */
    int hostCount = 0;
    /** First global host id of this shard: a local host h maps to the
     *  cluster-wide id h + hostOffset. */
    int hostOffset = 0;
    /** Run seed of this shard's Simulation. */
    std::uint64_t seed = 0;
};

/** Complete partition of services, microservices and hosts. */
struct ShardPlan
{
    int shardCount = 0;
    std::vector<ShardSpec> shards;
    /** Owning shard per service id. */
    std::unordered_map<ServiceId, int> shardOfService;
    /** Owning shard per microservice id (only microservices reachable
     *  from some service's dependency graph appear). */
    std::unordered_map<MicroserviceId, int> shardOfMicroservice;
};

/**
 * Partition `services` (each with its dependency graph attached) and
 * `total_hosts` hosts into `shard_count` shards. shard_count is clamped
 * to [1, #components]: with fewer components than requested shards the
 * surplus shards would be empty, so the plan returns only non-empty
 * shards (shardCount reflects the clamp).
 * @throws ErmsError when services lack graphs, the service list is
 *         empty, or total_hosts < the effective shard count.
 */
ShardPlan planShards(const std::vector<ServiceWorkload> &services,
                     int total_hosts, int shard_count,
                     std::uint64_t base_seed);

} // namespace erms::shard

#endif // ERMS_SHARD_PARTITION_HPP
