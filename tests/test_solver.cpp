/**
 * @file
 * Tests for LatencyTargetSolver: closed-form agreement on chains, the
 * two-interval refinement of §5.3.1, saturation capping, workload
 * overrides, and infeasibility reporting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/catalog.hpp"
#include "scaling/solver.hpp"

namespace erms {
namespace {

/** Catalog with two microservices and hand-built synthetic models. */
class SolverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MicroserviceProfile u;
        u.name = "U";
        u.resources = {0.1, 200.0};
        idU = catalog.add(u);
        MicroserviceProfile p;
        p.name = "P";
        p.resources = {0.1, 200.0};
        idP = catalog.add(p);

        SyntheticModelConfig mu;
        mu.baseLatencyMs = 10.0;
        mu.slope1 = 0.004;
        mu.slope2 = 0.04;
        mu.cutoffAtZero = 2000.0;
        mu.cutoffCpuShift = 500.0;
        mu.cutoffMemShift = 500.0;
        catalog.setModel(idU, makeSyntheticModel(mu));

        SyntheticModelConfig mp;
        mp.baseLatencyMs = 5.0;
        mp.slope1 = 0.001;
        mp.slope2 = 0.01;
        mp.cutoffAtZero = 6000.0;
        mp.cutoffCpuShift = 800.0;
        mp.cutoffMemShift = 800.0;
        catalog.setModel(idP, makeSyntheticModel(mp));

        graph = std::make_unique<DependencyGraph>(0, idU);
        graph->addCall(idU, idP, 0);
    }

    ServiceAllocation
    solve(double sla, double workload, const Interference &itf = {})
    {
        LatencyTargetSolver solver(catalog, capacity);
        ServiceScalingRequest request;
        request.graph = graph.get();
        request.slaMs = sla;
        request.workload = workload;
        return solver.solve(request, itf);
    }

    MicroserviceCatalog catalog;
    ClusterCapacity capacity{};
    MicroserviceId idU = 0, idP = 0;
    std::unique_ptr<DependencyGraph> graph;
};

TEST_F(SolverTest, FeasibleChainMeetsBudget)
{
    const auto alloc = solve(200.0, 40000.0);
    ASSERT_TRUE(alloc.feasible);
    const double tu = alloc.perMicroservice.at(idU).latencyTargetMs;
    const double tp = alloc.perMicroservice.at(idP).latencyTargetMs;
    EXPECT_NEAR(tu + tp, 200.0, 1e-9);
    EXPECT_GT(alloc.perMicroservice.at(idU).containers, 0);
    EXPECT_GT(alloc.perMicroservice.at(idP).containers, 0);
}

TEST_F(SolverTest, SensitiveMicroserviceGetsHigherTarget)
{
    // U's slope is 4x P's: Eq. (5) gives U the larger latency share.
    const auto alloc = solve(200.0, 40000.0);
    ASSERT_TRUE(alloc.feasible);
    EXPECT_GT(alloc.perMicroservice.at(idU).latencyTargetMs,
              alloc.perMicroservice.at(idP).latencyTargetMs);
}

TEST_F(SolverTest, ContainersScaleWithWorkload)
{
    const auto low = solve(200.0, 10000.0);
    const auto high = solve(200.0, 80000.0);
    ASSERT_TRUE(low.feasible && high.feasible);
    EXPECT_GT(high.totalContainers(), low.totalContainers());
}

TEST_F(SolverTest, TighterSlaNeedsMoreContainers)
{
    const auto loose = solve(250.0, 40000.0);
    const auto tight = solve(60.0, 40000.0);
    ASSERT_TRUE(loose.feasible && tight.feasible);
    EXPECT_GE(tight.totalContainers(), loose.totalContainers());
}

TEST_F(SolverTest, InterferenceIncreasesContainers)
{
    const auto calm = solve(150.0, 40000.0, {0.05, 0.05});
    const auto busy = solve(150.0, 40000.0, {0.6, 0.6});
    ASSERT_TRUE(calm.feasible && busy.feasible);
    EXPECT_GT(busy.totalContainers(), calm.totalContainers());
}

TEST_F(SolverTest, InfeasibleSlaReported)
{
    // Intercepts sum to 15 ms; anything below cannot be met.
    const auto alloc = solve(10.0, 1000.0);
    EXPECT_FALSE(alloc.feasible);
    EXPECT_FALSE(alloc.infeasibleReason.empty());
}

TEST_F(SolverTest, TwoIntervalRefinementSwitchesTightTargets)
{
    // A very tight SLA forces targets below the cutoff latency, which
    // must switch those microservices to interval-1 bands.
    const auto tight = solve(25.0, 4000.0);
    ASSERT_TRUE(tight.feasible);
    bool any_below = false;
    for (const auto &[id, alloc] : tight.perMicroservice)
        any_below |= alloc.intervalUsed == Interval::BelowCutoff;
    EXPECT_TRUE(any_below);

    // A loose SLA keeps the cheaper interval-2 bands.
    const auto loose = solve(280.0, 40000.0);
    ASSERT_TRUE(loose.feasible);
    for (const auto &[id, alloc] : loose.perMicroservice)
        EXPECT_EQ(alloc.intervalUsed, Interval::AboveCutoff);
}

TEST_F(SolverTest, SaturationCapBoundsPerContainerLoad)
{
    // Loads never exceed the saturation guard: min of the slope-trust
    // bound (load whose predicted latency is 3x the knee latency) and
    // the absolute 1.15x-cutoff backstop.
    const Interference itf{};
    const auto alloc = solve(280.0, 100000.0, itf);
    ASSERT_TRUE(alloc.feasible);
    for (const auto &[id, ms_alloc] : alloc.perMicroservice) {
        const double per_container =
            ms_alloc.workload / ms_alloc.containers;
        const auto &model = catalog.model(id);
        double trust = model.maxLoadForLatency(
            3.0 * model.cutoffLatency(itf), itf);
        if (trust <= 0.0)
            trust = model.cutoff(itf);
        const double cap = std::min(trust, 1.15 * model.cutoff(itf));
        EXPECT_LE(per_container, cap * 1.0001) << catalog.name(id);
    }
}

TEST_F(SolverTest, WorkloadOverrideChangesSizing)
{
    LatencyTargetSolver solver(catalog, capacity);
    ServiceScalingRequest request;
    request.graph = graph.get();
    request.slaMs = 200.0;
    request.workload = 10000.0;

    const auto base = solver.solve(request, {});

    std::vector<double> workloads = graph->workloadsByIndex(10000.0);
    workloads[graph->indexOf(idP)] = 80000.0;
    request.workloadOverride = &workloads;
    const auto overridden = solver.solve(request, {});

    ASSERT_TRUE(base.feasible && overridden.feasible);
    EXPECT_GT(overridden.perMicroservice.at(idP).containers,
              base.perMicroservice.at(idP).containers);
    EXPECT_DOUBLE_EQ(overridden.perMicroservice.at(idP).workload, 80000.0);
    // U untouched by the override.
    EXPECT_DOUBLE_EQ(overridden.perMicroservice.at(idU).workload, 10000.0);
}

TEST_F(SolverTest, OverrideNotIndexedLikeNodesIsInternalError)
{
    LatencyTargetSolver solver(catalog, capacity);
    ServiceScalingRequest request;
    request.graph = graph.get();
    request.slaMs = 200.0;
    request.workload = 10000.0;
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        const std::vector<double> workloads(size, 10000.0);
        request.workloadOverride = &workloads;
        EXPECT_THROW(solver.solve(request, {}), std::logic_error) << size;
    }
}

TEST_F(SolverTest, TotalsAreConsistent)
{
    const auto alloc = solve(200.0, 40000.0);
    ASSERT_TRUE(alloc.feasible);
    int containers = 0;
    double resource = 0.0;
    for (const auto &[id, a] : alloc.perMicroservice) {
        containers += a.containers;
        resource += a.containers * a.resourceDemand;
    }
    EXPECT_EQ(alloc.totalContainers(), containers);
    EXPECT_NEAR(alloc.totalResource(), resource, 1e-12);
}

TEST_F(SolverTest, ZeroWorkloadStillDeploysOneContainer)
{
    const auto alloc = solve(200.0, 0.0);
    ASSERT_TRUE(alloc.feasible);
    for (const auto &[id, a] : alloc.perMicroservice)
        EXPECT_EQ(a.containers, 1);
}

} // namespace
} // namespace erms
