/**
 * @file
 * Tests for MultiplexingPlanner (§4.3, §5.3.2): shared-microservice
 * detection, priority ordering by initial latency target, cumulative
 * modified workloads, container combination per policy, and the
 * resource-usage ordering of Theorem 1 on the planner itself.
 */

#include <gtest/gtest.h>

#include "apps/applications.hpp"
#include "common/error.hpp"
#include "scaling/multiplexing.hpp"

namespace erms {
namespace {

class MultiplexingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        app = makeMotivationShared(catalog, 0);
        idU = catalog.findByName("shr-user-timeline");
        idH = catalog.findByName("shr-home-timeline");
        idP = catalog.findByName("shr-post-storage");
        ASSERT_NE(idU, kInvalidMicroservice);

        for (std::size_t i = 0; i < app.graphs.size(); ++i) {
            ServiceSpec svc;
            svc.id = app.graphs[i].service();
            svc.name = app.serviceNames[i];
            svc.graph = &app.graphs[i];
            svc.slaMs = 300.0;
            svc.workload = 40000.0;
            services.push_back(svc);
        }
    }

    GlobalPlan
    plan(SharingPolicy policy, const Interference &itf = {0.3, 0.3})
    {
        MultiplexingPlanner planner(catalog, capacity);
        return planner.plan(services, itf, policy);
    }

    MicroserviceCatalog catalog;
    ClusterCapacity capacity{};
    Application app;
    std::vector<ServiceSpec> services;
    MicroserviceId idU = 0, idH = 0, idP = 0;
};

TEST_F(MultiplexingTest, SharedMicroserviceDetection)
{
    const auto shared = MultiplexingPlanner::sharedMicroservices(services);
    ASSERT_EQ(shared.size(), 1u);
    ASSERT_TRUE(shared.count(idP));
    EXPECT_EQ(shared.at(idP).size(), 2u);
}

TEST_F(MultiplexingTest, PriorityOrderFollowsInitialTargets)
{
    const GlobalPlan p = plan(SharingPolicy::Priority);
    ASSERT_TRUE(p.feasible);
    ASSERT_TRUE(p.priorityOrder.count(idP));
    const auto &order = p.priorityOrder.at(idP);
    ASSERT_EQ(order.size(), 2u);
    // Service 1 contains the more sensitive U, so its initial target at
    // P is lower => higher priority (§2.3).
    EXPECT_EQ(order.front(), services[0].id);
    EXPECT_EQ(order.back(), services[1].id);
}

TEST_F(MultiplexingTest, ModifiedWorkloadsAreCumulative)
{
    const GlobalPlan p = plan(SharingPolicy::Priority);
    ASSERT_TRUE(p.feasible);
    // High-priority service sees only its own traffic at P; the
    // low-priority one sees the sum.
    double high_gamma = 0.0, low_gamma = 0.0;
    for (const auto &alloc : p.services) {
        const double gamma = alloc.perMicroservice.at(idP).workload;
        if (alloc.service == services[0].id)
            high_gamma = gamma;
        else
            low_gamma = gamma;
    }
    EXPECT_DOUBLE_EQ(high_gamma, 40000.0);
    EXPECT_DOUBLE_EQ(low_gamma, 80000.0);
}

TEST_F(MultiplexingTest, FcfsUsesTotalWorkloadForEveryone)
{
    const GlobalPlan p = plan(SharingPolicy::FcfsSharing);
    ASSERT_TRUE(p.feasible);
    for (const auto &alloc : p.services)
        EXPECT_DOUBLE_EQ(alloc.perMicroservice.at(idP).workload, 80000.0);
}

TEST_F(MultiplexingTest, NonSharingSumsContainersAtShared)
{
    const GlobalPlan p = plan(SharingPolicy::NonSharing);
    ASSERT_TRUE(p.feasible);
    int per_service_sum = 0;
    for (const auto &alloc : p.services)
        per_service_sum += alloc.perMicroservice.at(idP).containers;
    EXPECT_EQ(p.containers.at(idP), per_service_sum);
}

TEST_F(MultiplexingTest, SharedContainersAreMaxUnderPriority)
{
    const GlobalPlan p = plan(SharingPolicy::Priority);
    ASSERT_TRUE(p.feasible);
    int max_demand = 0;
    for (const auto &alloc : p.services)
        max_demand = std::max(max_demand,
                              alloc.perMicroservice.at(idP).containers);
    EXPECT_EQ(p.containers.at(idP), max_demand);
}

TEST_F(MultiplexingTest, Theorem1OrderingOnPlanner)
{
    const GlobalPlan priority = plan(SharingPolicy::Priority);
    const GlobalPlan non_sharing = plan(SharingPolicy::NonSharing);
    const GlobalPlan fcfs = plan(SharingPolicy::FcfsSharing);
    ASSERT_TRUE(priority.feasible && non_sharing.feasible && fcfs.feasible);
    // RU^o <= RU^n <= RU^s (integer rounding can blur by one container,
    // so compare with a one-container tolerance on the middle term).
    EXPECT_LE(priority.totalContainers, non_sharing.totalContainers + 1);
    EXPECT_LE(non_sharing.totalContainers, fcfs.totalContainers + 1);
    EXPECT_LE(priority.totalContainers, fcfs.totalContainers);
}

TEST_F(MultiplexingTest, PriorityPlanKeepsNonSharedServiceSpecific)
{
    const GlobalPlan p = plan(SharingPolicy::Priority);
    ASSERT_TRUE(p.feasible);
    // U only belongs to service 1, H only to service 2.
    EXPECT_TRUE(p.containers.count(idU));
    EXPECT_TRUE(p.containers.count(idH));
    EXPECT_FALSE(p.priorityOrder.count(idU));
    EXPECT_FALSE(p.priorityOrder.count(idH));
}

TEST_F(MultiplexingTest, TotalsMatchContainerMap)
{
    const GlobalPlan p = plan(SharingPolicy::Priority);
    int total = 0;
    for (const auto &[id, count] : p.containers)
        total += count;
    EXPECT_EQ(p.totalContainers, total);
    EXPECT_GT(p.totalResource, 0.0);
}

TEST_F(MultiplexingTest, InfeasibleServiceFlagsPlan)
{
    services[0].slaMs = 1.0; // below the intercepts
    const GlobalPlan p = plan(SharingPolicy::Priority);
    EXPECT_FALSE(p.feasible);
    EXPECT_FALSE(p.infeasibleReason.empty());
}

TEST_F(MultiplexingTest, SingleServiceDegeneratesToBasicSolve)
{
    std::vector<ServiceSpec> one{services[0]};
    MultiplexingPlanner planner(catalog, capacity);
    const GlobalPlan p =
        planner.plan(one, {0.3, 0.3}, SharingPolicy::Priority);
    ASSERT_TRUE(p.feasible);
    EXPECT_TRUE(p.priorityOrder.empty());
    ASSERT_EQ(p.services.size(), 1u);
}

TEST_F(MultiplexingTest, DuplicateServiceIdRejectedUnderPriority)
{
    services[1].id = services[0].id;
    MultiplexingPlanner planner(catalog, capacity);
    try {
        planner.plan(services, {0.3, 0.3}, SharingPolicy::Priority);
        FAIL() << "duplicate service ids were accepted";
    } catch (const ErmsError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "service id " + std::to_string(services[0].id) + " "),
                  std::string::npos)
            << err.what();
    }
}

TEST_F(MultiplexingTest, NodeOutsideCatalogThrows)
{
    const MicroserviceId past_end =
        static_cast<MicroserviceId>(catalog.size());
    for (MicroserviceId bad : {past_end, kInvalidMicroservice - 1}) {
        DependencyGraph graph(services.back().id + 1, idU);
        graph.addCall(idU, bad, 0);
        ServiceSpec extra;
        extra.id = graph.service();
        extra.graph = &graph;
        extra.slaMs = 300.0;
        extra.workload = 1000.0;
        std::vector<ServiceSpec> with_bad = services;
        with_bad.push_back(extra);
        MultiplexingPlanner planner(catalog, capacity);
        for (SharingPolicy policy :
             {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
              SharingPolicy::NonSharing}) {
            EXPECT_THROW(planner.plan(with_bad, {0.3, 0.3}, policy),
                         ErmsError)
                << bad;
        }
    }
}

} // namespace
} // namespace erms
