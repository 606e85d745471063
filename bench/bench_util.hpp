/**
 * @file
 * Shared machinery of the reproduction benches: building service specs
 * from an application, profiling a catalog through the simulator
 * (offline profiling as §5.2 prescribes), deploying a plan in the
 * simulator and measuring P95/violations, and small printing helpers.
 * Every bench prints the paper's rows so shapes can be compared against
 * the original figures (EXPERIMENTS.md records the comparison).
 */

#ifndef ERMS_BENCH_BENCH_UTIL_HPP
#define ERMS_BENCH_BENCH_UTIL_HPP

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "baselines/baseline.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "runner/parallel_runner.hpp"

namespace erms::bench {

/**
 * Progress observer for bench sweeps: one stderr line per finished run
 * with its task index and wall time (stdout stays reserved for the
 * paper's tables). Callbacks are serialized by ParallelRunner.
 */
class ProgressPrinter : public RunObserver
{
  public:
    ProgressPrinter(std::string label, int workers);

    void onRunFinished(std::size_t index, std::size_t total,
                       double wall_seconds) override;

  private:
    std::string label_;
    int workers_;
    std::size_t finished_ = 0;
    double totalWallSeconds_ = 0.0;
};

/**
 * Runner options from ERMS_RUNNER_THREADS: its value (a positive
 * decimal integer) as the worker count, or 0 — the hardware count —
 * when unset or empty. Read at every call, so each sweep or validation
 * sees the variable as it stands when it starts. The benches and the
 * golden tests read the process environment only through this function
 * and shardsRequested(); the library takes every setting through its
 * config structs.
 * @throws ErmsError naming the variable and the value when the value
 *         is not a whole decimal integer in range (parseNumber).
 */
RunnerOptions runnerOptionsFromEnv();

/**
 * Shard count requested via ERMS_SHARDS (read at every call): 0
 * (sharding off) when unset, empty or "0", otherwise the value.
 * Anything but a non-negative decimal integer throws ErmsError.
 * ERMS_SHARDS=1 routes validation through the sharded coordinator with
 * one shard — the configuration the golden differential pins
 * byte-identical to the unsharded engine.
 */
int shardsRequested();

/**
 * Run a sweep of independent experiment tasks through ParallelRunner
 * (worker count from runnerOptionsFromEnv(); set ERMS_RUNNER_THREADS=1
 * for the serial baseline) with per-run progress on stderr. Results
 * come back in task order, so the printed tables are identical however
 * many workers execute the sweep.
 */
template <typename Result>
std::vector<Result>
runSweep(const std::string &label,
         std::vector<std::function<Result()>> tasks)
{
    ParallelRunner runner(runnerOptionsFromEnv());
    ProgressPrinter progress(label, runner.workerCount());
    runner.setObserver(&progress);
    return runner.runAll(std::move(tasks));
}

/** Service specs for an application at uniform SLA/workload. */
std::vector<ServiceSpec> makeServices(const Application &app, double sla_ms,
                                      double workload);

/** Service specs using per-service SLAs/workloads. */
std::vector<ServiceSpec>
makeServices(const Application &app, const std::vector<double> &sla_ms,
             const std::vector<double> &workloads);

/**
 * Offline profiling for an application: run the sweep (on
 * runnerOptionsFromEnv() workers) and attach fitted models to the
 * catalog. Returns per-microservice training accuracy.
 */
std::unordered_map<MicroserviceId, double>
profileApplication(MicroserviceCatalog &catalog, const Application &app,
                   double rate_per_service = 12000.0,
                   int minutes_per_cell = 2, std::uint64_t seed = 11);

/** Result of validating one plan in the simulator. */
struct ValidationResult
{
    /** Per-service P95 (ms), ordered as the service specs. */
    std::vector<double> p95Ms;
    /** Per-service fraction of requests above the SLA. */
    std::vector<double> violationRate;
    /** Per-service SLO-violation rate counting failed requests as
     *  violations (only differs from violationRate under faults). */
    std::vector<double> sloViolationRate;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t requestsFailed = 0;
    /** Fault accounting of the run (all zero without fault injection). */
    FaultStats faults{};

    double maxP95() const;
    double meanViolationRate() const;
    double meanSloViolationRate() const;
};

/**
 * Deploy a plan and replay the workload in the cluster simulator — or,
 * when shardsRequested() >= 1, in the sharded coordinator with that
 * many shards on runnerOptionsFromEnv() workers.
 */
ValidationResult validatePlan(const MicroserviceCatalog &catalog,
                              const std::vector<ServiceSpec> &services,
                              const GlobalPlan &plan, const Interference &itf,
                              int horizon_minutes = 5,
                              std::uint64_t seed = 42);

/**
 * Like validatePlan, but with fault injection and a resilience policy
 * active, plus a per-minute capacity-repair controller that restores
 * crashed capacity through the ordinary scaling path (kubelet restarts
 * already cover the common case; the controller catches runs with
 * restart disabled). Fault schedules derive from fault.seed only, so a
 * sweep varies `seed` for workload noise while keeping the fault
 * schedule comparable across plans.
 */
ValidationResult validatePlanFaulty(const MicroserviceCatalog &catalog,
                                    const std::vector<ServiceSpec> &services,
                                    const GlobalPlan &plan,
                                    const Interference &itf,
                                    const FaultConfig &fault,
                                    const ResilienceConfig &resilience,
                                    int horizon_minutes = 5,
                                    std::uint64_t seed = 42);

/** Human-readable policy name. */
std::string policyName(SharingPolicy policy);

} // namespace erms::bench

#endif // ERMS_BENCH_BENCH_UTIL_HPP
