/**
 * @file
 * ShardedSimulation — K independent shard Simulations advancing in
 * minute lockstep on a ParallelRunner, with per-shard telemetry merged
 * into one cluster-wide view between steps. This is the scale-out path
 * to the paper's production setting (500+ services, thousands of
 * hosts): each shard owns a connected component set of the
 * service–microservice graph plus a slice of the host fleet, so its
 * event loop touches a working set small enough to stay cache-resident
 * while the coordinator presents the union to controllers.
 *
 * Execution model (docs/sharding.md has the diagrams):
 *
 *   beginRun all shards (coordinated-pause mode)
 *   repeat until every shard reports horizon:
 *     - advanceToMinuteBoundary() on every shard (runner tasks):
 *       each resumes its paused minute — deferred minute callback,
 *       next boundary post — then drains to the next boundary pause
 *     - coordinator merges any new per-shard telemetry scrapes into
 *       the ShardedTelemetryView (min-over-shards generations, so the
 *       merged stream only ever contains cluster-complete scrapes)
 *
 * Controllers run inside each shard's resume at the exact
 * event-sequence position of an inline minute callback, observing the
 * merged view (frozen between rounds, so concurrent shard callbacks
 * read it safely). Decisions apply to the shard's own Simulation —
 * the coordinator routes any cross-shard mutation (setContainerCount)
 * to the owning shard between rounds.
 *
 * Determinism contract:
 *  - K == 1 is byte-identical to an unsharded Simulation::run() (same
 *    seed, same event order, same metrics bytes) — the golden
 *    differential pins this;
 *  - for fixed K, results are byte-identical across runner worker
 *    counts (shards share no mutable state during a round);
 *  - shard seeds derive from the base seed via deriveRunSeed.
 */

#ifndef ERMS_SHARD_SHARDED_SIM_HPP
#define ERMS_SHARD_SHARDED_SIM_HPP

#include <functional>
#include <memory>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "shard/merge.hpp"
#include "shard/partition.hpp"
#include "sim/simulation.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"

namespace erms::shard {

/** Configuration of one sharded run. */
struct ShardedSimConfig
{
    /** Cluster-wide simulation parameters; hostCount is the TOTAL host
     *  fleet (split across shards) and seed the base seed shards derive
     *  theirs from. */
    SimConfig base{};
    /** Requested shard count (clamped to the component count). */
    int shards = 1;
    /** Worker pool the lockstep rounds run on (0 = hardware), capped
     *  at the shard count. */
    RunnerOptions runner{};
    /** Attach a SimMonitor per shard and merge scrapes into the
     *  cluster-wide telemetry view. */
    bool telemetry = false;
    /** Monitor knobs shared by every shard (scrape cadence must match
     *  for generation-wise merging). */
    telemetry::MonitorConfig monitor{};
};

/**
 * Cluster-wide TelemetryView over merged per-shard scrape snapshots.
 * The coordinator appends one merged snapshot per cluster-complete
 * scrape generation between lockstep rounds; all query math is
 * inherited from SnapshotTelemetryView, so controllers interpret the
 * merged stream exactly as they would a single monitor's.
 */
class ShardedTelemetryView : public telemetry::SnapshotTelemetryView
{
  public:
    /** Append the next merged scrape generation (coordinator only,
     *  never concurrent with shard callbacks). */
    void
    append(telemetry::TelemetrySnapshot snapshot)
    {
        merged_.push_back(std::move(snapshot));
    }

    std::size_t generations() const { return merged_.size(); }

  protected:
    const std::vector<telemetry::TelemetrySnapshot> &
    visibleSnapshots() const override
    {
        return merged_;
    }

  private:
    std::vector<telemetry::TelemetrySnapshot> merged_;
};

/** Coordinator owning K shard Simulations (see file doc). */
class ShardedSimulation
{
  public:
    ShardedSimulation(const MicroserviceCatalog &catalog,
                      ShardedSimConfig config);
    ~ShardedSimulation();

    ShardedSimulation(const ShardedSimulation &) = delete;
    ShardedSimulation &operator=(const ShardedSimulation &) = delete;

    // --- assembly (before finalization) --------------------------------

    /** Register a service (must precede any routing call: the shard
     *  partition is computed from the full service list). */
    void addService(ServiceWorkload service);

    /** Queue uniform background load for every host of every shard. */
    void setBackgroundLoadAll(double cpu_util, double mem_util);

    // --- routing mutators (finalize the partition on first use) --------

    /** Split a cluster-wide plan by ownership and apply each slice to
     *  its shard (container counts + priority orders). */
    void applyPlan(const GlobalPlan &plan);

    /** Fault injection, split across shards: Poisson rates scale by
     *  each shard's host share (a shard holding 1/4 of the fleet draws
     *  1/4 of the crashes); K == 1 keeps config and seed verbatim. */
    void setFaultConfig(const FaultConfig &config);

    /** Resilience policy, identical on every shard. */
    void setResilienceConfig(const ResilienceConfig &config);

    /** Scale one microservice through its owning shard. */
    void setContainerCount(MicroserviceId ms, int count);

    /** Live containers of a microservice (0 when unowned). */
    int containerCount(MicroserviceId ms);

    /** Per-minute controller for one shard, invoked at that shard's
     *  resume point (see file doc). Build it from shardLocalPlan() /
     *  shard-owned services so it only touches owned state. */
    void setShardMinuteController(
        int k, std::function<void(Simulation &, int)> controller);

    // --- structure ------------------------------------------------------

    /** The computed partition (finalizes on first call). */
    const ShardPlan &shardPlan();

    int shardCount();

    /** Shard k's Simulation (test/bench observability). */
    Simulation &shard(int k);

    /** Slice of the last applyPlan() restricted to shard k's services
     *  and microservices (empty plan when none was applied). */
    GlobalPlan shardLocalPlan(int k);

    /** Cluster-wide telemetry view (null unless config.telemetry).
     *  Safe to hand to controllers on any shard. */
    std::shared_ptr<const telemetry::TelemetryView> mergedView();

    // --- execution and results -----------------------------------------

    /** Run all shards to the horizon in minute lockstep. Once only. */
    void run();

    /** Merged cluster-wide metrics (after run()). */
    const SimMetrics &metrics() const;

    /** Total events dispatched across shards (after run()). */
    std::uint64_t eventsDispatched() const;

  private:
    void ensureFinalized();
    /** Merge scrape generations every shard has completed. */
    void mergeNewTelemetry();

    const MicroserviceCatalog &catalog_;
    ShardedSimConfig config_;

    // queued until finalization
    std::vector<ServiceWorkload> pendingServices_;
    bool hasBackground_ = false;
    double bgCpu_ = 0.0;
    double bgMem_ = 0.0;

    bool finalized_ = false;
    bool ran_ = false;
    ShardPlan plan_;
    std::vector<std::unique_ptr<telemetry::SimMonitor>> monitors_;
    std::vector<std::unique_ptr<Simulation>> sims_;
    std::shared_ptr<ShardedTelemetryView> mergedView_;
    /** Caches the union schema across generations; touched only
     *  between rounds. */
    TelemetryMerger telemetryMerger_;
    std::size_t mergedGenerations_ = 0;
    GlobalPlan appliedPlan_;
    bool hasPlan_ = false;
    SimMetrics mergedMetrics_;
    bool metricsMerged_ = false;
};

} // namespace erms::shard

#endif // ERMS_SHARD_SHARDED_SIM_HPP
