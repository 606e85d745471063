/**
 * @file
 * LatencyTargetSolver — the Latency Target Computation component
 * (§4.2, §5.3.1). For one service it:
 *
 *  1. derives per-microservice workloads from the service request rate,
 *  2. builds the graph's merge tree once and evaluates it with
 *     interval-2 (queueing regime) bands,
 *  3. unfolds the SLA into per-microservice latency targets (Eq. (5)),
 *  4. checks each target against the cutoff latency; any microservice
 *     whose target falls below it would actually operate in interval 1,
 *     so the solver re-evaluates the same tree with interval-1 bands for
 *     those microservices (at most two passes per graph, §5.3.1),
 *  5. converts targets to container counts n_i = A_i / (T_i - b_i),
 *     rounded up.
 *
 * Per-microservice state lives in arrays indexed like the graph's
 * nodes() for the whole solve.
 */

#ifndef ERMS_SCALING_SOLVER_HPP
#define ERMS_SCALING_SOLVER_HPP

#include <string>
#include <vector>

#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "model/resource.hpp"
#include "scaling/plan.hpp"

namespace erms {

/**
 * Tunable design choices of the solver, exposed for the ablation bench
 * (`bench_ablation_design`). Defaults reproduce the shipped behaviour.
 */
struct SolverOptions
{
    /** Refinement iterations (2 = the paper's literal two-pass §5.3.1;
     *  the default iterates to a fixed point). */
    int maxRefinementPasses = 8;
    /** Slope-trust rule: loads are trusted while the fitted model's
     *  predicted latency stays below this multiple of the knee
     *  latency. */
    double trustLatencyFactor = 3.0;
    /** Absolute backstop on per-container load, as a multiple of the
     *  fitted cutoff workload. */
    double cutoffBackstopFactor = 1.15;
};

/** Inputs describing one service to scale. */
struct ServiceScalingRequest
{
    const DependencyGraph *graph = nullptr;
    double slaMs = 0.0;
    /** Request arrival rate at the service's root (requests/minute). */
    RequestsPerMinute workload = 0.0;
    /**
     * Optional per-microservice workloads indexed like graph->nodes(),
     * used instead of the ones derived from `workload`. The multiplexing
     * planner passes priority-modified (or FCFS total) workloads at
     * shared microservices this way. Its length must be graph->size().
     */
    const std::vector<double> *workloadOverride = nullptr;
};

/** One solve's allocations by graph-local index, before they are keyed
 *  by microservice id. */
struct IndexedAllocation
{
    bool feasible = false;
    /** Human-readable reason when infeasible. */
    std::string infeasibleReason;
    /** Allocations of graph.nodes()[0, perIndex.size()): every node,
     *  unless an infeasible solve stopped part-way through sizing. */
    std::vector<MicroserviceAllocation> perIndex;
};

/**
 * Closed-form optimal latency-target and container-count solver for a
 * single service. Stateless apart from catalog/capacity references.
 */
class LatencyTargetSolver
{
  public:
    LatencyTargetSolver(const MicroserviceCatalog &catalog,
                        ClusterCapacity capacity,
                        SolverOptions options = {});

    /**
     * Solve the basic scaling model for one service under the given
     * cluster-average interference. Never throws for infeasible SLAs;
     * the result carries feasible=false instead.
     */
    ServiceAllocation solve(const ServiceScalingRequest &request,
                            const Interference &itf) const;

    /** The same solve with its allocations kept by graph-local index;
     *  solve() emplaces the same allocations into perMicroservice in
     *  nodes() order. */
    IndexedAllocation solveIndexed(const ServiceScalingRequest &request,
                                   const Interference &itf) const;

  private:
    /** The solve itself: hands each sized microservice's allocation to
     *  sized(index, allocation) in nodes() order, and returns
     *  feasibility. */
    template <class Sized>
    bool solveWith(const ServiceScalingRequest &request,
                   const Interference &itf, std::string &infeasible_reason,
                   Sized &&sized) const;

    const MicroserviceCatalog &catalog_;
    ClusterCapacity capacity_;
    SolverOptions options_;
};

} // namespace erms

#endif // ERMS_SCALING_SOLVER_HPP
