#include "sharded_sim.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace erms::shard {

ShardedSimulation::ShardedSimulation(const MicroserviceCatalog &catalog,
                                     ShardedSimConfig config)
    : catalog_(catalog), config_(std::move(config))
{
    ERMS_ASSERT_MSG(config_.shards >= 1, "shard count must be >= 1");
}

ShardedSimulation::~ShardedSimulation() = default;

void
ShardedSimulation::addService(ServiceWorkload service)
{
    ERMS_ASSERT_MSG(!finalized_,
                    "addService must precede routing calls: the shard "
                    "partition is computed from the full service list");
    pendingServices_.push_back(std::move(service));
}

void
ShardedSimulation::setBackgroundLoadAll(double cpu_util, double mem_util)
{
    ERMS_ASSERT_MSG(!finalized_,
                    "setBackgroundLoadAll must precede routing calls");
    hasBackground_ = true;
    bgCpu_ = cpu_util;
    bgMem_ = mem_util;
}

void
ShardedSimulation::ensureFinalized()
{
    if (finalized_)
        return;
    finalized_ = true;

    plan_ = planShards(pendingServices_, config_.base.hostCount,
                       config_.shards, config_.base.seed);

    sims_.reserve(plan_.shards.size());
    if (config_.telemetry) {
        mergedView_ = std::make_shared<ShardedTelemetryView>();
        monitors_.reserve(plan_.shards.size());
    }
    for (const ShardSpec &spec : plan_.shards) {
        SimConfig cfg = config_.base;
        cfg.hostCount = spec.hostCount;
        cfg.seed = spec.seed;
        auto sim = std::make_unique<Simulation>(catalog_, cfg);
        if (config_.telemetry) {
            monitors_.push_back(
                std::make_unique<telemetry::SimMonitor>(config_.monitor));
            sim->setMonitor(monitors_.back().get());
        }
        if (hasBackground_)
            sim->setBackgroundLoadAll(bgCpu_, bgMem_);
        for (std::size_t svc : spec.services)
            sim->addService(pendingServices_[svc]);
        sims_.push_back(std::move(sim));
    }
}

void
ShardedSimulation::applyPlan(const GlobalPlan &plan)
{
    ensureFinalized();
    appliedPlan_ = plan;
    hasPlan_ = true;
    for (int k = 0; k < plan_.shardCount; ++k)
        sims_[k]->applyPlan(shardLocalPlan(k));
}

GlobalPlan
ShardedSimulation::shardLocalPlan(int k)
{
    ensureFinalized();
    ERMS_ASSERT(k >= 0 && k < plan_.shardCount);
    if (!hasPlan_)
        return GlobalPlan{};
    GlobalPlan local;
    local.policy = appliedPlan_.policy;
    local.feasible = appliedPlan_.feasible;
    local.infeasibleReason = appliedPlan_.infeasibleReason;
    for (const auto &[ms, count] : appliedPlan_.containers) {
        auto owner = plan_.shardOfMicroservice.find(ms);
        if (owner != plan_.shardOfMicroservice.end() && owner->second == k)
            local.containers.emplace(ms, count);
    }
    for (const ServiceAllocation &alloc : appliedPlan_.services) {
        auto owner = plan_.shardOfService.find(alloc.service);
        if (owner != plan_.shardOfService.end() && owner->second == k)
            local.services.push_back(alloc);
    }
    for (const auto &[ms, order] : appliedPlan_.priorityOrder) {
        auto owner = plan_.shardOfMicroservice.find(ms);
        if (owner != plan_.shardOfMicroservice.end() && owner->second == k)
            local.priorityOrder.emplace(ms, order);
    }
    for (const auto &[ms, count] : local.containers)
        local.totalContainers += count;
    // totalResource stays a cluster-wide figure; the per-shard slice
    // recomputes only what routing consumers (capacity repair, scaling
    // paths keyed on the containers map) actually read.
    local.totalResource = appliedPlan_.totalResource;
    return local;
}

void
ShardedSimulation::setFaultConfig(const FaultConfig &config)
{
    ensureFinalized();
    const int total_hosts = config_.base.hostCount;
    for (int k = 0; k < plan_.shardCount; ++k) {
        FaultConfig shard_config = config;
        if (plan_.shardCount > 1) {
            // Independent schedule stream per shard; cluster-wide
            // Poisson rates thin by the shard's host share (splitting a
            // Poisson process by fraction p yields a Poisson process of
            // rate p * lambda).
            shard_config.seed =
                deriveRunSeed(config.seed, static_cast<std::uint64_t>(k));
            const double share =
                static_cast<double>(plan_.shards[k].hostCount) /
                static_cast<double>(total_hosts);
            shard_config.crashesPerMinute = config.crashesPerMinute * share;
            shard_config.slowdownsPerMinute =
                config.slowdownsPerMinute * share;
        }
        sims_[k]->setFaultConfig(shard_config);
    }
}

void
ShardedSimulation::setResilienceConfig(const ResilienceConfig &config)
{
    ensureFinalized();
    for (auto &sim : sims_)
        sim->setResilienceConfig(config);
}

void
ShardedSimulation::setContainerCount(MicroserviceId ms, int count)
{
    ensureFinalized();
    auto owner = plan_.shardOfMicroservice.find(ms);
    ERMS_ASSERT_MSG(owner != plan_.shardOfMicroservice.end(),
                    "setContainerCount on a microservice no shard owns");
    sims_[owner->second]->setContainerCount(ms, count);
}

int
ShardedSimulation::containerCount(MicroserviceId ms)
{
    ensureFinalized();
    auto owner = plan_.shardOfMicroservice.find(ms);
    if (owner == plan_.shardOfMicroservice.end())
        return 0;
    return sims_[owner->second]->containerCount(ms);
}

void
ShardedSimulation::setShardMinuteController(
    int k, std::function<void(Simulation &, int)> controller)
{
    ensureFinalized();
    ERMS_ASSERT(k >= 0 && k < plan_.shardCount);
    sims_[k]->setMinuteCallback(std::move(controller));
}

const ShardPlan &
ShardedSimulation::shardPlan()
{
    ensureFinalized();
    return plan_;
}

int
ShardedSimulation::shardCount()
{
    ensureFinalized();
    return plan_.shardCount;
}

Simulation &
ShardedSimulation::shard(int k)
{
    ensureFinalized();
    ERMS_ASSERT(k >= 0 && k < plan_.shardCount);
    return *sims_[k];
}

std::shared_ptr<const telemetry::TelemetryView>
ShardedSimulation::mergedView()
{
    ensureFinalized();
    return mergedView_;
}

void
ShardedSimulation::mergeNewTelemetry()
{
    if (!config_.telemetry)
        return;
    // Only merge scrape generations every shard has completed: all
    // monitors scrape on the same deterministic cadence, so generation
    // g of each shard samples the same simulated instant.
    std::size_t complete = monitors_[0]->snapshots().size();
    for (const auto &monitor : monitors_)
        complete = std::min(complete, monitor->snapshots().size());
    std::vector<const telemetry::TelemetrySnapshot *> generation;
    generation.reserve(monitors_.size());
    while (mergedGenerations_ < complete) {
        generation.clear();
        for (const auto &monitor : monitors_)
            generation.push_back(
                &monitor->snapshots()[mergedGenerations_]);
        mergedView_->append(telemetryMerger_.merge(generation, plan_));
        ++mergedGenerations_;
    }
}

void
ShardedSimulation::run()
{
    ensureFinalized();
    ERMS_ASSERT_MSG(!ran_, "ShardedSimulation::run may only be called once");
    ran_ = true;

    // Serial setup: beginRun seeds arrivals and the first boundary and
    // takes the t=0 baseline scrape per shard.
    for (auto &sim : sims_) {
        sim->setCoordinatedPause(true);
        sim->beginRun();
    }
    mergeNewTelemetry(); // the t=0 baseline scrapes

    // A round has at most one task per shard.
    const std::size_t shard_count = sims_.size();
    ParallelRunner runner(RunnerOptions{
        resolveWorkerCount(config_.runner.workers, shard_count)});
    std::vector<int> paused(shard_count, 0);
    bool anyRunning = true;
    while (anyRunning) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(shard_count);
        for (std::size_t k = 0; k < shard_count; ++k) {
            if (paused[k] < 0)
                continue; // shard already drained to the horizon
            Simulation *sim = sims_[k].get();
            int *state = &paused[k];
            tasks.push_back(
                [sim, state] { *state = sim->advanceToMinuteBoundary(); });
        }
        runner.runAll(std::move(tasks));
        // Between rounds no shard executes: safe to grow the merged
        // telemetry stream the shard callbacks read during rounds.
        mergeNewTelemetry();
        anyRunning = false;
        for (std::size_t k = 0; k < shard_count; ++k)
            anyRunning = anyRunning || paused[k] >= 0;
    }

    std::vector<const SimMetrics *> parts;
    parts.reserve(shard_count);
    for (const auto &sim : sims_)
        parts.push_back(&sim->metrics());
    mergedMetrics_ = mergeMetrics(parts);
    metricsMerged_ = true;
}

const SimMetrics &
ShardedSimulation::metrics() const
{
    ERMS_ASSERT_MSG(metricsMerged_, "metrics() requires a completed run()");
    return mergedMetrics_;
}

std::uint64_t
ShardedSimulation::eventsDispatched() const
{
    std::uint64_t total = 0;
    for (const auto &sim : sims_)
        total += sim->metrics().eventsDispatched;
    return total;
}

} // namespace erms::shard
