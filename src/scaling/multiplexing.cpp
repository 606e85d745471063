#include "multiplexing.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace erms {

MultiplexingPlanner::MultiplexingPlanner(const MicroserviceCatalog &catalog,
                                         ClusterCapacity capacity,
                                         SolverOptions options)
    : catalog_(catalog), capacity_(capacity),
      solver_(catalog, capacity, options)
{
}

std::unordered_map<MicroserviceId, std::vector<ServiceId>>
MultiplexingPlanner::sharedMicroservices(
    const std::vector<ServiceSpec> &services)
{
    std::unordered_map<MicroserviceId, std::vector<ServiceId>> users;
    for (const ServiceSpec &svc : services) {
        ERMS_ASSERT(svc.graph != nullptr);
        for (MicroserviceId id : svc.graph->nodes())
            users[id].push_back(svc.id);
    }
    std::unordered_map<MicroserviceId, std::vector<ServiceId>> shared;
    for (auto &[id, list] : users) {
        if (list.size() >= 2)
            shared.emplace(id, std::move(list));
    }
    return shared;
}

void
MultiplexingPlanner::finalize(GlobalPlan &plan) const
{
    plan.totalContainers = 0;
    plan.totalResource = 0.0;
    for (const auto &[id, count] : plan.containers) {
        plan.totalContainers += count;
        plan.totalResource +=
            count * dominantShare(catalog_.profile(id).resources, capacity_);
    }
}

GlobalPlan
MultiplexingPlanner::plan(const std::vector<ServiceSpec> &services,
                          const Interference &itf,
                          SharingPolicy policy) const
{
    switch (policy) {
      case SharingPolicy::Priority:
        return planPriority(services, itf);
      case SharingPolicy::FcfsSharing:
        return planFcfs(services, itf);
      case SharingPolicy::NonSharing:
        return planNonSharing(services, itf);
    }
    ERMS_ASSERT_MSG(false, "unreachable sharing policy");
    return {};
}

GlobalPlan
MultiplexingPlanner::planNonSharing(const std::vector<ServiceSpec> &services,
                                    const Interference &itf) const
{
    GlobalPlan plan;
    plan.policy = SharingPolicy::NonSharing;
    plan.feasible = true;

    for (const ServiceSpec &svc : services) {
        ServiceScalingRequest request;
        request.graph = svc.graph;
        request.slaMs = svc.slaMs;
        request.workload = svc.workload;
        ServiceAllocation alloc = solver_.solve(request, itf);
        if (!alloc.feasible) {
            plan.feasible = false;
            plan.infeasibleReason = alloc.infeasibleReason;
        }
        // Dedicated partitions: container demands add up per service.
        for (const auto &[id, ms_alloc] : alloc.perMicroservice)
            plan.containers[id] += ms_alloc.containers;
        plan.services.push_back(std::move(alloc));
    }
    finalize(plan);
    return plan;
}

GlobalPlan
MultiplexingPlanner::planFcfs(const std::vector<ServiceSpec> &services,
                              const Interference &itf) const
{
    GlobalPlan plan;
    plan.policy = SharingPolicy::FcfsSharing;
    plan.feasible = true;

    const auto shared = sharedMicroservices(services);

    // Total workload per shared microservice across all services.
    std::unordered_map<MicroserviceId, double> total_gamma;
    for (const ServiceSpec &svc : services) {
        const auto workloads = svc.graph->workloads(svc.workload);
        for (const auto &[id, gamma] : workloads) {
            if (shared.count(id))
                total_gamma[id] += gamma;
        }
    }

    for (const ServiceSpec &svc : services) {
        ServiceScalingRequest request;
        request.graph = svc.graph;
        request.slaMs = svc.slaMs;
        request.workload = svc.workload;
        request.workloadOverride = &total_gamma;
        ServiceAllocation alloc = solver_.solve(request, itf);
        if (!alloc.feasible) {
            plan.feasible = false;
            plan.infeasibleReason = alloc.infeasibleReason;
        }
        // Shared containers: the strictest (largest) demand wins, which
        // is the container-count equivalent of taking the minimum latency
        // target (§2.3).
        for (const auto &[id, ms_alloc] : alloc.perMicroservice) {
            auto it = plan.containers.find(id);
            if (it == plan.containers.end())
                plan.containers.emplace(id, ms_alloc.containers);
            else
                it->second = std::max(it->second, ms_alloc.containers);
        }
        plan.services.push_back(std::move(alloc));
    }
    finalize(plan);
    return plan;
}

GlobalPlan
MultiplexingPlanner::planPriority(const std::vector<ServiceSpec> &services,
                                  const Interference &itf) const
{
    GlobalPlan plan;
    plan.policy = SharingPolicy::Priority;
    plan.feasible = true;

    const auto shared = sharedMicroservices(services);

    // Step 1: initial independent solve to obtain initial latency targets
    // at shared microservices.
    std::unordered_map<ServiceId, ServiceAllocation> initial;
    for (const ServiceSpec &svc : services) {
        ServiceScalingRequest request;
        request.graph = svc.graph;
        request.slaMs = svc.slaMs;
        request.workload = svc.workload;
        ServiceAllocation alloc = solver_.solve(request, itf);
        if (!alloc.feasible) {
            plan.feasible = false;
            plan.infeasibleReason = alloc.infeasibleReason;
        }
        initial.emplace(svc.id, std::move(alloc));
    }

    // Step 2: per shared microservice, order services by ascending
    // initial latency target (lower target => more latency-sensitive
    // service => higher priority).
    for (const auto &[ms_id, users] : shared) {
        std::vector<std::pair<double, ServiceId>> ranked;
        for (ServiceId svc_id : users) {
            const ServiceAllocation &alloc = initial.at(svc_id);
            auto it = alloc.perMicroservice.find(ms_id);
            const double target = it != alloc.perMicroservice.end()
                                      ? it->second.latencyTargetMs
                                      : svc_id; // infeasible: stable order
            ranked.emplace_back(target, svc_id);
        }
        std::sort(ranked.begin(), ranked.end());
        std::vector<ServiceId> order;
        order.reserve(ranked.size());
        for (const auto &[target, svc_id] : ranked)
            order.push_back(svc_id);
        plan.priorityOrder.emplace(ms_id, std::move(order));
    }

    // Step 3: modified workloads. Service with the k-th highest priority
    // at shared microservice i sees sum_{l<=k} gamma_{l,i}. Each
    // service's workloads are derived once, indexed like its nodes().
    struct ServiceWorkloads
    {
        const DependencyGraph *graph = nullptr;
        std::vector<double> gamma;
    };
    std::unordered_map<ServiceId, ServiceWorkloads> workloads_of;
    for (const ServiceSpec &svc : services) {
        workloads_of.emplace(
            svc.id,
            ServiceWorkloads{svc.graph,
                             svc.graph->workloadsByIndex(svc.workload)});
    }

    std::unordered_map<ServiceId, std::unordered_map<MicroserviceId, double>>
        overrides;
    for (const auto &[ms_id, order] : plan.priorityOrder) {
        double cumulative = 0.0;
        for (ServiceId svc_id : order) {
            const ServiceWorkloads &svc = workloads_of.at(svc_id);
            cumulative += svc.gamma[svc.graph->indexOf(ms_id)];
            overrides[svc_id][ms_id] = cumulative;
        }
    }

    // Step 4: final per-service solve with modified workloads; deployed
    // shared containers take the maximum demand over services.
    for (const ServiceSpec &svc : services) {
        ServiceScalingRequest request;
        request.graph = svc.graph;
        request.slaMs = svc.slaMs;
        request.workload = svc.workload;
        auto ov_it = overrides.find(svc.id);
        if (ov_it != overrides.end())
            request.workloadOverride = &ov_it->second;
        ServiceAllocation alloc = solver_.solve(request, itf);
        if (!alloc.feasible) {
            plan.feasible = false;
            plan.infeasibleReason = alloc.infeasibleReason;
        }
        for (const auto &[id, ms_alloc] : alloc.perMicroservice) {
            auto it = plan.containers.find(id);
            if (it == plan.containers.end())
                plan.containers.emplace(id, ms_alloc.containers);
            else
                it->second = std::max(it->second, ms_alloc.containers);
        }
        plan.services.push_back(std::move(alloc));
    }
    finalize(plan);
    return plan;
}

} // namespace erms
