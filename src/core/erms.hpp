/**
 * @file
 * ErmsController — the top-level public API of the library, mirroring
 * the architecture of Fig. 6:
 *
 *   Tracing Coordinator (src/trace) -> Offline Profiling (src/profiling)
 *   -> Online Scaling: Graph Merge + Latency Target Computation
 *      (src/scaling) + Priority Scheduling (§5.3.2)
 *   -> Resource Provisioning (src/provision)
 *
 * A controller owns the scaling pipeline for a fixed catalog: call
 * plan() for one-shot scaling decisions, or makeAutoscaler() to obtain a
 * per-minute closed-loop callback for the cluster simulator.
 */

#ifndef ERMS_CORE_ERMS_HPP
#define ERMS_CORE_ERMS_HPP

#include <functional>
#include <memory>

#include "scaling/multiplexing.hpp"
#include "sim/simulation.hpp"
#include "telemetry/view.hpp"

namespace erms {

/** Controller configuration. */
struct ErmsConfig
{
    ClusterCapacity capacity{};
    /** Sharing policy; Priority is Erms proper, the others are the §2.3
     *  comparison points. */
    SharingPolicy policy = SharingPolicy::Priority;
    /** Multiplier applied to observed workloads before planning
     *  (headroom against within-minute bursts). */
    double workloadHeadroom = 1.1;
    /** Solver design knobs (refinement passes, saturation guards). */
    SolverOptions solver{};
};

/** Top-level Erms resource manager. */
class ErmsController
{
  public:
    ErmsController(const MicroserviceCatalog &catalog, ErmsConfig config);

    /** One-shot plan for the given services at a fixed interference. */
    GlobalPlan plan(const std::vector<ServiceSpec> &services,
                    const Interference &itf) const;

    /**
     * Closed-loop autoscaler: a minute callback for Simulation that
     * re-reads each service's observed arrival rate and the cluster
     * interference, recomputes the plan, and applies it (containers +
     * priority orders). The workload field of each ServiceSpec is the
     * bootstrap rate used until a full minute of observations exists.
     *
     * Every read goes through one TelemetryView: the one passed, whose
     * rate/interference/P95 answers come from scraped snapshots, or with
     * a null view the Simulation itself, the oracle view of the last
     * ended minute (byte-identical to the pre-telemetry observations).
     */
    std::function<void(Simulation &, int)>
    makeAutoscaler(std::vector<ServiceSpec> services,
                   std::shared_ptr<const telemetry::TelemetryView> view =
                       nullptr) const;

    const ErmsConfig &config() const { return config_; }

  private:
    const MicroserviceCatalog &catalog_;
    ErmsConfig config_;
    MultiplexingPlanner planner_;
};

} // namespace erms

#endif // ERMS_CORE_ERMS_HPP
