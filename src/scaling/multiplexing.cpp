#include "multiplexing.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace erms {

namespace {

/**
 * Every (service position, graph-local index) pair grouped by
 * microservice id, with one counting sort over the catalog's dense ids.
 * Within a group, pairs follow submission order.
 */
struct ServiceUsers
{
    struct User
    {
        std::size_t service = 0;
        std::size_t index = 0;
    };

    /** users[begin[ms], begin[ms + 1]) use microservice ms. */
    std::vector<std::size_t> begin;
    std::vector<User> users;

    /** The pairs using microservice `ms`. */
    std::span<const User>
    of(MicroserviceId ms) const
    {
        return std::span<const User>(users).subspan(
            begin[ms], begin[ms + 1] - begin[ms]);
    }
};

/** @throws ErmsError for a graph node outside the catalog. */
ServiceUsers
groupUsers(const std::vector<ServiceSpec> &services,
           std::size_t catalog_size)
{
    ServiceUsers out;
    out.begin.assign(catalog_size + 1, 0);
    for (const ServiceSpec &svc : services) {
        ERMS_ASSERT(svc.graph != nullptr);
        for (MicroserviceId id : svc.graph->nodes()) {
            if (id >= catalog_size) {
                throw ErmsError("service " + std::to_string(svc.id) +
                                " calls unknown microservice id " +
                                std::to_string(id));
            }
            ++out.begin[id + 1];
        }
    }
    for (std::size_t ms = 1; ms <= catalog_size; ++ms)
        out.begin[ms] += out.begin[ms - 1];
    out.users.resize(out.begin.back());
    std::vector<std::size_t> next(out.begin.begin(), out.begin.end() - 1);
    for (std::size_t s = 0; s < services.size(); ++s) {
        const std::vector<MicroserviceId> &nodes = services[s].graph->nodes();
        for (std::size_t j = 0; j < nodes.size(); ++j)
            out.users[next[nodes[j]]++] = ServiceUsers::User{s, j};
    }
    return out;
}

/** Each service's graph-derived workloads, indexed like its nodes(). */
std::vector<std::vector<double>>
ownWorkloads(const std::vector<ServiceSpec> &services)
{
    std::vector<std::vector<double>> workloads;
    workloads.reserve(services.size());
    for (const ServiceSpec &svc : services)
        workloads.push_back(svc.graph->workloadsByIndex(svc.workload));
    return workloads;
}

ServiceScalingRequest
request(const ServiceSpec &svc, const std::vector<double> *workloads)
{
    ServiceScalingRequest out;
    out.graph = svc.graph;
    out.slaMs = svc.slaMs;
    out.workload = svc.workload;
    out.workloadOverride = workloads;
    return out;
}

} // namespace

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
        ServiceAllocation alloc = solver_.solve(request(svc, nullptr), itf);
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

    const ServiceUsers users = groupUsers(services, catalog_.size());
    std::vector<std::vector<double>> workloads = ownWorkloads(services);

    // Every service sees the total workload, summed in submission order,
    // at each shared microservice.
    for (MicroserviceId ms = 0; ms < catalog_.size(); ++ms) {
        const std::span<const ServiceUsers::User> group = users.of(ms);
        if (group.size() < 2)
            continue;
        double total = 0.0;
        for (const ServiceUsers::User &user : group)
            total += workloads[user.service][user.index];
        for (const ServiceUsers::User &user : group)
            workloads[user.service][user.index] = total;
    }

    for (std::size_t s = 0; s < services.size(); ++s) {
        ServiceAllocation alloc =
            solver_.solve(request(services[s], &workloads[s]), itf);
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

    // Priorities rank services by id, so an id must name one service.
    std::vector<ServiceId> ids;
    ids.reserve(services.size());
    for (const ServiceSpec &svc : services)
        ids.push_back(svc.id);
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end()) {
        throw ErmsError("service id " + std::to_string(*dup) +
                        " is submitted more than once to the priority "
                        "planner");
    }

    const ServiceUsers users = groupUsers(services, catalog_.size());
    // Each service's own workloads, indexed like its nodes(); Step 3
    // overwrites the shared entries with priority-modified ones.
    std::vector<std::vector<double>> workloads = ownWorkloads(services);

    // Step 1: initial independent solve to obtain initial latency targets
    // at shared microservices.
    std::vector<IndexedAllocation> initial;
    initial.reserve(services.size());
    for (std::size_t s = 0; s < services.size(); ++s) {
        IndexedAllocation alloc =
            solver_.solveIndexed(request(services[s], &workloads[s]), itf);
        if (!alloc.feasible) {
            plan.feasible = false;
            plan.infeasibleReason = alloc.infeasibleReason;
        }
        initial.push_back(std::move(alloc));
    }

    // Step 2: per shared microservice, order services by ascending
    // initial latency target (lower target => more latency-sensitive
    // service => higher priority).
    // Step 3: modified workloads. The service with the k-th highest
    // priority at shared microservice i sees sum_{l<=k} gamma_{l,i}.
    struct Ranked
    {
        double target;
        ServiceId service;
        ServiceUsers::User user;
    };
    std::vector<Ranked> ranked;
    for (MicroserviceId ms = 0; ms < catalog_.size(); ++ms) {
        const std::span<const ServiceUsers::User> group = users.of(ms);
        if (group.size() < 2)
            continue;
        ranked.clear();
        for (const ServiceUsers::User &user : group) {
            const ServiceId svc_id = services[user.service].id;
            const auto &sized = initial[user.service].perIndex;
            const double target = user.index < sized.size()
                                      ? sized[user.index].latencyTargetMs
                                      : svc_id; // infeasible: stable order
            ranked.push_back(Ranked{target, svc_id, user});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const Ranked &a, const Ranked &b) {
                      return std::pair(a.target, a.service) <
                             std::pair(b.target, b.service);
                  });
        std::vector<ServiceId> order;
        order.reserve(ranked.size());
        double cumulative = 0.0;
        for (const Ranked &r : ranked) {
            order.push_back(r.service);
            double &gamma = workloads[r.user.service][r.user.index];
            cumulative += gamma;
            gamma = cumulative;
        }
        plan.priorityOrder.emplace(ms, std::move(order));
    }

    // Step 4: final per-service solve with modified workloads; deployed
    // shared containers take the maximum demand over services.
    for (std::size_t s = 0; s < services.size(); ++s) {
        ServiceAllocation alloc =
            solver_.solve(request(services[s], &workloads[s]), itf);
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
