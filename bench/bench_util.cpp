#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/controllers.hpp"
#include "shard/sharded_sim.hpp"

namespace erms::bench {

namespace {

/** The integer environment variable `name`: nullopt when unset or
 *  empty, else its whole value as a decimal integer in [lo, hi]; any
 *  other value throws an ErmsError naming the variable and the value. */
std::optional<int>
envInt(const char *name, int lo, int hi)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return std::nullopt;
    const std::optional<int> value = parseNumber<int>(raw);
    if (!value || *value < lo || *value > hi) {
        throw ErmsError(std::string(name) + "='" + raw +
                        "': expected a decimal integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "]");
    }
    return value;
}

} // namespace

RunnerOptions
runnerOptionsFromEnv()
{
    return RunnerOptions{
        envInt("ERMS_RUNNER_THREADS", 1, std::numeric_limits<int>::max())
            .value_or(0)};
}

int
shardsRequested()
{
    return envInt("ERMS_SHARDS", 0, std::numeric_limits<int>::max())
        .value_or(0);
}

ProgressPrinter::ProgressPrinter(std::string label, int workers)
    : label_(std::move(label)), workers_(workers)
{
}

void
ProgressPrinter::onRunFinished(std::size_t index, std::size_t total,
                               double wall_seconds)
{
    ++finished_;
    totalWallSeconds_ += wall_seconds;
    std::fprintf(stderr,
                 "[%s] run %zu finished in %.2fs (%zu/%zu done, "
                 "%d workers, %.1fs cpu total)\n",
                 label_.c_str(), index, wall_seconds, finished_, total,
                 workers_, totalWallSeconds_);
}

std::vector<ServiceSpec>
makeServices(const Application &app, double sla_ms, double workload)
{
    std::vector<double> slas(app.graphs.size(), sla_ms);
    std::vector<double> workloads(app.graphs.size(), workload);
    return makeServices(app, slas, workloads);
}

std::vector<ServiceSpec>
makeServices(const Application &app, const std::vector<double> &sla_ms,
             const std::vector<double> &workloads)
{
    ERMS_ASSERT(sla_ms.size() == app.graphs.size());
    ERMS_ASSERT(workloads.size() == app.graphs.size());
    std::vector<ServiceSpec> services;
    services.reserve(app.graphs.size());
    for (std::size_t i = 0; i < app.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = app.graphs[i].service();
        svc.name = app.serviceNames[i];
        svc.graph = &app.graphs[i];
        svc.slaMs = sla_ms[i];
        svc.workload = workloads[i];
        services.push_back(svc);
    }
    return services;
}

std::unordered_map<MicroserviceId, double>
profileApplication(MicroserviceCatalog &catalog, const Application &app,
                   double rate_per_service, int minutes_per_cell,
                   std::uint64_t seed)
{
    std::vector<const DependencyGraph *> graphs;
    graphs.reserve(app.graphs.size());
    for (const auto &graph : app.graphs)
        graphs.push_back(&graph);

    ProfilingSweepConfig sweep;
    sweep.ratePerService = rate_per_service;
    sweep.minutesPerCell = minutes_per_cell;
    sweep.seed = seed;
    sweep.runner = runnerOptionsFromEnv();
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);
    return fitAndAttachModels(catalog, samples);
}

double
ValidationResult::maxP95() const
{
    double worst = 0.0;
    for (double p95 : p95Ms)
        worst = std::max(worst, p95);
    return worst;
}

double
ValidationResult::meanViolationRate() const
{
    if (violationRate.empty())
        return 0.0;
    double sum = 0.0;
    for (double rate : violationRate)
        sum += rate;
    return sum / static_cast<double>(violationRate.size());
}

double
ValidationResult::meanSloViolationRate() const
{
    if (sloViolationRate.empty())
        return 0.0;
    double sum = 0.0;
    for (double rate : sloViolationRate)
        sum += rate;
    return sum / static_cast<double>(sloViolationRate.size());
}

namespace {

void
installCapacityRepair(Simulation &sim, const GlobalPlan &plan)
{
    sim.setMinuteCallback(makeCapacityRepairController(plan));
}

void
installCapacityRepair(shard::ShardedSimulation &sim, const GlobalPlan &)
{
    for (int k = 0; k < sim.shardCount(); ++k)
        sim.setShardMinuteController(
            k, makeCapacityRepairController(sim.shardLocalPlan(k)));
}

/** The one validation body: deploy, optionally inject faults with a
 *  capacity-repair controller, run, and read the per-service results.
 *  Sim is a Simulation or a ShardedSimulation. */
template <class Sim>
ValidationResult
runValidation(Sim &sim, const std::vector<ServiceSpec> &services,
              const GlobalPlan &plan, const Interference &itf,
              const FaultConfig *fault, const ResilienceConfig *resilience)
{
    sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        workload.rate = svc.workload;
        sim.addService(workload);
    }
    sim.applyPlan(plan);
    if (fault != nullptr) {
        sim.setFaultConfig(*fault);
        sim.setResilienceConfig(*resilience);
        installCapacityRepair(sim, plan);
    }
    sim.run();

    const SimMetrics &metrics = sim.metrics();
    ValidationResult result;
    for (const ServiceSpec &svc : services) {
        result.p95Ms.push_back(metrics.p95(svc.id));
        result.violationRate.push_back(
            metrics.violationRate(svc.id, svc.slaMs));
        result.sloViolationRate.push_back(
            metrics.sloViolationRate(svc.id, svc.slaMs));
    }
    result.requestsCompleted = metrics.requestsCompleted;
    result.requestsFailed = metrics.requestsFailed;
    result.faults = metrics.faults;
    return result;
}

/**
 * ERMS_SHARDS selects the sharded-coordinator path: the same deployment
 * sequence executed across K shard simulations in minute lockstep with
 * merged metrics. ERMS_SHARDS=1 is byte-identical to the unsharded path
 * (the golden differential pins it); K > 1 changes the partition
 * geometry and RNG streams, so it is a different — equally
 * deterministic — experiment at larger scale.
 */
ValidationResult
validateImpl(const MicroserviceCatalog &catalog,
             const std::vector<ServiceSpec> &services, const GlobalPlan &plan,
             const Interference &itf, const FaultConfig *fault,
             const ResilienceConfig *resilience, int horizon_minutes,
             std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = horizon_minutes;
    config.warmupMinutes = 1;
    config.seed = seed;
    if (const int shards = shardsRequested(); shards >= 1) {
        shard::ShardedSimConfig sharded;
        sharded.base = config;
        sharded.shards = shards;
        sharded.runner = runnerOptionsFromEnv();
        shard::ShardedSimulation sim(catalog, sharded);
        return runValidation(sim, services, plan, itf, fault, resilience);
    }
    Simulation sim(catalog, config);
    return runValidation(sim, services, plan, itf, fault, resilience);
}

} // namespace

ValidationResult
validatePlan(const MicroserviceCatalog &catalog,
             const std::vector<ServiceSpec> &services, const GlobalPlan &plan,
             const Interference &itf, int horizon_minutes, std::uint64_t seed)
{
    return validateImpl(catalog, services, plan, itf, nullptr, nullptr,
                        horizon_minutes, seed);
}

ValidationResult
validatePlanFaulty(const MicroserviceCatalog &catalog,
                   const std::vector<ServiceSpec> &services,
                   const GlobalPlan &plan, const Interference &itf,
                   const FaultConfig &fault,
                   const ResilienceConfig &resilience, int horizon_minutes,
                   std::uint64_t seed)
{
    return validateImpl(catalog, services, plan, itf, &fault, &resilience,
                        horizon_minutes, seed);
}

std::string
policyName(SharingPolicy policy)
{
    switch (policy) {
      case SharingPolicy::Priority:
        return "priority";
      case SharingPolicy::FcfsSharing:
        return "fcfs-sharing";
      case SharingPolicy::NonSharing:
        return "non-sharing";
    }
    return "?";
}

} // namespace erms::bench
