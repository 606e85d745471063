/**
 * @file
 * MultiplexingPlanner — cluster-wide scaling across services that share
 * microservices (§4.3, §5.3.2).
 *
 * Under SharingPolicy::Priority (Erms):
 *  1. every service is solved independently to obtain *initial* latency
 *     targets;
 *  2. at each shared microservice, services are prioritized by ascending
 *     initial latency target (a low target signals latency-sensitive
 *     company on the path — serve it first);
 *  3. every service is re-solved with *modified workloads*: the service
 *     with the k-th highest priority at shared microservice i sees
 *     sum_{l<=k} gamma_{l,i} — its own traffic plus everything scheduled
 *     ahead of it (Eqs. (13)-(14));
 *  4. the deployed container count of a shared microservice is the
 *     maximum demanded by any service, which satisfies every priority
 *     level's constraint.
 *
 * FcfsSharing solves each service against the *total* workload at shared
 * microservices (equivalent to taking the minimum latency target, §2.3)
 * and NonSharing partitions containers per service (sums demands).
 */

#ifndef ERMS_SCALING_MULTIPLEXING_HPP
#define ERMS_SCALING_MULTIPLEXING_HPP

#include <string>
#include <vector>

#include "scaling/solver.hpp"

namespace erms {

/** One online service submitted to the planner. */
struct ServiceSpec
{
    ServiceId id = kInvalidService;
    std::string name;
    const DependencyGraph *graph = nullptr;
    double slaMs = 0.0;
    RequestsPerMinute workload = 0.0;
};

/** Cluster-wide planner handling microservice sharing. */
class MultiplexingPlanner
{
  public:
    MultiplexingPlanner(const MicroserviceCatalog &catalog,
                        ClusterCapacity capacity,
                        SolverOptions options = {});

    /**
     * Produce the global plan under the chosen sharing policy.
     * @throws ErmsError for a graph node outside the catalog, and under
     *         SharingPolicy::Priority for two services with one id.
     */
    GlobalPlan plan(const std::vector<ServiceSpec> &services,
                    const Interference &itf,
                    SharingPolicy policy = SharingPolicy::Priority) const;

    /**
     * Microservices appearing in more than one submitted service, with
     * the sharing services listed in submission order.
     */
    static std::unordered_map<MicroserviceId, std::vector<ServiceId>>
    sharedMicroservices(const std::vector<ServiceSpec> &services);

  private:
    GlobalPlan planPriority(const std::vector<ServiceSpec> &services,
                            const Interference &itf) const;
    GlobalPlan planFcfs(const std::vector<ServiceSpec> &services,
                        const Interference &itf) const;
    GlobalPlan planNonSharing(const std::vector<ServiceSpec> &services,
                              const Interference &itf) const;

    /** Fill plan totals from per-service allocations + container map. */
    void finalize(GlobalPlan &plan) const;

    const MicroserviceCatalog &catalog_;
    ClusterCapacity capacity_;
    LatencyTargetSolver solver_;
};

} // namespace erms

#endif // ERMS_SCALING_MULTIPLEXING_HPP
