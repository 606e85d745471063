/**
 * @file
 * Tests for features added after the first green build: critical-path
 * semantics and end-to-end composition, piecewise-model inversion,
 * solver options (refinement passes, saturation guards), round-robin
 * dispatch, workload extraction from spans, and the priority variants of
 * the score-based baselines.
 */

#include <gtest/gtest.h>

#include "apps/applications.hpp"
#include "baselines/baseline.hpp"
#include "common/rng.hpp"
#include "core/erms.hpp"
#include "trace/coordinator.hpp"

namespace erms {
namespace {

// ---------------------------------------------------------------------
// Critical paths and end-to-end composition
// ---------------------------------------------------------------------

/** root(0) -> {1, 2} parallel, then 3; 1 -> 4. */
DependencyGraph
stagedGraph()
{
    DependencyGraph g(0, 0);
    g.addCall(0, 1, 0);
    g.addCall(0, 2, 0);
    g.addCall(0, 3, 1);
    g.addCall(1, 4, 0);
    return g;
}

TEST(CriticalPaths, VisitsAllStagesOneBranchEach)
{
    const DependencyGraph g = stagedGraph();
    const auto paths = g.criticalPaths();
    // Branch choices at the root's stage 0: {1,4} or {2}; stage 1 is
    // always {3}: paths {0,1,4,3} and {0,2,3}.
    ASSERT_EQ(paths.size(), 2u);
    for (const auto &path : paths) {
        EXPECT_EQ(path.front(), 0u);
        // Every critical path contains the stage-1 call 3.
        EXPECT_NE(std::find(path.begin(), path.end(), 3u), path.end());
    }
}

TEST(CriticalPaths, SingleNodeGraph)
{
    DependencyGraph g(0, 9);
    const auto paths = g.criticalPaths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], (std::vector<MicroserviceId>{9}));
}

TEST(CriticalPaths, CapRespected)
{
    // Wide parallel fan-out: 8 branches in one stage = 8 paths.
    DependencyGraph g(0, 0);
    for (MicroserviceId id = 1; id <= 8; ++id)
        g.addCall(0, id, 0);
    EXPECT_EQ(g.criticalPaths().size(), 8u);
    EXPECT_EQ(g.criticalPaths(3).size(), 3u);
}

TEST(EndToEndLatency, StageSumOfMaxima)
{
    const DependencyGraph g = stagedGraph();
    std::unordered_map<MicroserviceId, double> values{
        {0, 10.0}, {1, 5.0}, {2, 30.0}, {3, 7.0}, {4, 20.0}};
    // Stage 0: max(branch 1+4 = 25, branch 2 = 30) = 30; stage 1: 7.
    std::vector<MicroserviceId> critical;
    EXPECT_DOUBLE_EQ(endToEndLatency(g, values, &critical), 47.0);
    // Critical path passes through 2 (the worse stage-0 branch) and 3.
    EXPECT_EQ(critical,
              (std::vector<MicroserviceId>{0, 2, 3}));
}

TEST(EndToEndLatency, MatchesMaxCriticalPathSum)
{
    const DependencyGraph g = stagedGraph();
    std::unordered_map<MicroserviceId, double> values{
        {0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}, {4, 5.0}};
    double best = 0.0;
    for (const auto &path : g.criticalPaths()) {
        double sum = 0.0;
        for (MicroserviceId id : path)
            sum += values.at(id);
        best = std::max(best, sum);
    }
    EXPECT_DOUBLE_EQ(endToEndLatency(g, values), best);
}

TEST(EndToEndLatency, IndexedValuesMatchCriticalPathMaximum)
{
    // Random trees whose ids differ from their graph-local indices;
    // integer values keep every path sum exact.
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const MicroserviceId base = 100 + 7 * static_cast<MicroserviceId>(
                                              trial);
        DependencyGraph g(0, base);
        for (MicroserviceId k = 1; k < 15; ++k) {
            const MicroserviceId parent =
                base + static_cast<MicroserviceId>(rng.uniformInt(0, k - 1));
            g.addCall(parent, base + k,
                      static_cast<int>(rng.uniformInt(0, 2)));
        }
        std::vector<double> indexed(g.size());
        std::unordered_map<MicroserviceId, double> keyed;
        for (MicroserviceId id : g.nodes()) {
            const double v = static_cast<double>(rng.uniformInt(1, 50));
            indexed[g.indexOf(id)] = v;
            keyed[id] = v;
        }
        double best = 0.0;
        for (const auto &path : g.criticalPaths()) {
            double sum = 0.0;
            for (MicroserviceId id : path)
                sum += keyed.at(id);
            best = std::max(best, sum);
        }
        std::vector<MicroserviceId> critical;
        EXPECT_EQ(endToEndLatency(g, indexed, &critical), best);
        double along = 0.0;
        for (MicroserviceId id : critical)
            along += keyed.at(id);
        EXPECT_EQ(along, best);
        std::vector<MicroserviceId> keyed_critical;
        EXPECT_EQ(endToEndLatency(g, keyed, &keyed_critical), best);
        EXPECT_EQ(keyed_critical, critical);
    }
}

// ---------------------------------------------------------------------
// Piecewise inversion
// ---------------------------------------------------------------------

PiecewiseLatencyModel
inversionModel()
{
    SyntheticModelConfig config;
    config.baseLatencyMs = 10.0;
    config.slope1 = 0.005;
    config.slope2 = 0.05;
    config.cutoffAtZero = 2000.0;
    config.cutoffCpuShift = 500.0;
    config.cutoffMemShift = 500.0;
    return makeSyntheticModel(config);
}

TEST(MaxLoadForLatency, RoundTripsThroughTheModel)
{
    const auto model = inversionModel();
    const Interference itf{0.2, 0.1};
    for (double target : {12.0, 18.0, 25.0, 60.0, 150.0}) {
        const double load = model.maxLoadForLatency(target, itf);
        ASSERT_GT(load, 0.0) << "target " << target;
        // The predicted latency at the returned load meets the target...
        EXPECT_LE(model.latency(load, itf), target * 1.0001);
        // ...and a slightly higher load violates it (tightness), except
        // where the interval-1 bound sigma caps the load.
        const double sigma = model.cutoff(itf);
        if (load < sigma * 0.999) {
            EXPECT_GT(model.latency(load * 1.05, itf), target * 0.999);
        }
    }
}

TEST(MaxLoadForLatency, BelowFloorReturnsZero)
{
    const auto model = inversionModel();
    EXPECT_DOUBLE_EQ(model.maxLoadForLatency(5.0, {0.0, 0.0}), 0.0);
}

TEST(MaxLoadForLatency, HighTargetsLandInIntervalTwo)
{
    const auto model = inversionModel();
    const Interference itf{0.0, 0.0};
    const double sigma = model.cutoff(itf);
    const double load = model.maxLoadForLatency(
        model.cutoffLatency(itf) * 2.0, itf);
    EXPECT_GT(load, sigma);
}

// ---------------------------------------------------------------------
// Solver options
// ---------------------------------------------------------------------

TEST(SolverOptions, TighterBackstopNeverReducesContainers)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationChain(catalog, 0);
    ServiceSpec svc;
    svc.id = 0;
    svc.graph = &app.graphs[0];
    svc.slaMs = 200.0;
    svc.workload = 40000.0;
    const Interference itf{0.3, 0.3};

    int previous = 1 << 30;
    for (double backstop : {1.0, 1.15, 1.3}) {
        SolverOptions options;
        options.cutoffBackstopFactor = backstop;
        LatencyTargetSolver solver(catalog, ClusterCapacity{}, options);
        ServiceScalingRequest request;
        request.graph = svc.graph;
        request.slaMs = svc.slaMs;
        request.workload = svc.workload;
        const auto alloc = solver.solve(request, itf);
        ASSERT_TRUE(alloc.feasible);
        EXPECT_LE(alloc.totalContainers(), previous);
        previous = alloc.totalContainers();
    }
}

TEST(SolverOptions, InvalidValuesAreInternalErrors)
{
    MicroserviceCatalog catalog;
    SolverOptions bad;
    bad.maxRefinementPasses = 0;
    EXPECT_THROW(LatencyTargetSolver(catalog, ClusterCapacity{}, bad),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Round-robin dispatch
// ---------------------------------------------------------------------

TEST(Dispatch, RoundRobinSpreadsAcrossReplicasEvenly)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "rr";
    profile.baseServiceMs = 5.0;
    profile.threadsPerContainer = 4;
    profile.serviceCv = 0.3;
    const auto ms = catalog.add(profile);
    DependencyGraph g(0, ms);

    SimConfig config;
    config.horizonMinutes = 3;
    config.warmupMinutes = 1;
    config.dispatch = DispatchPolicy::RoundRobin;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    svc.rate = 3000.0;
    sim.addService(svc);
    sim.setContainerCount(ms, 3);
    sim.run();

    // Per-container workload is the total divided by replicas: with RR
    // the recorded per-container rate matches rate / 3 closely.
    for (const ProfilingRecord &rec : sim.metrics().profilingFor(ms)) {
        if (rec.minute == 0)
            continue;
        EXPECT_NEAR(rec.perContainerCalls, 1000.0, 150.0);
    }
    EXPECT_GT(sim.metrics().requestsCompleted, 4000u);
}

// ---------------------------------------------------------------------
// Workload extraction from spans
// ---------------------------------------------------------------------

TEST(TraceWorkloads, ScalesBySamplingRate)
{
    std::vector<CallSpan> spans;
    for (int i = 0; i < 30; ++i) {
        CallSpan span;
        span.callee = 5;
        span.serverReceive = (i < 20 ? 0 : kMinuteUs) + 1000;
        spans.push_back(span);
    }
    const auto workloads =
        TracingCoordinator::extractWorkloads(spans, 0.10);
    ASSERT_TRUE(workloads.count(5));
    EXPECT_DOUBLE_EQ(workloads.at(5).at(0), 200.0);
    EXPECT_DOUBLE_EQ(workloads.at(5).at(1), 100.0);
}

TEST(TraceWorkloads, RoughlyRecoversTrueRateFromSampledRun)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "traced";
    profile.baseServiceMs = 4.0;
    profile.threadsPerContainer = 4;
    const auto ms = catalog.add(profile);
    DependencyGraph g(2, ms);

    InMemorySpanCollector collector(0.10, 3);
    SimConfig config;
    config.horizonMinutes = 4;
    Simulation sim(catalog, config);
    sim.setSpanCollector(&collector);
    ServiceWorkload svc;
    svc.id = 2;
    svc.graph = &g;
    svc.rate = 6000.0;
    sim.addService(svc);
    sim.setContainerCount(ms, 2);
    sim.run();

    const auto workloads =
        TracingCoordinator::extractWorkloads(collector.spans(), 0.10);
    ASSERT_TRUE(workloads.count(ms));
    // Minute 1 estimate within 25% of the true 6000 (10% sampling noise).
    EXPECT_NEAR(workloads.at(ms).at(1), 6000.0, 1500.0);
}

// ---------------------------------------------------------------------
// Priority variants of the score-based baselines
// ---------------------------------------------------------------------

TEST(BaselinePriority, NeverCostsContainers)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < app.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = app.graphs[i].service();
        svc.graph = &app.graphs[i];
        svc.slaMs = 130.0;
        svc.workload = 40000.0;
        services.push_back(svc);
    }
    BaselineContext context;
    context.catalog = &catalog;
    context.interference = {0.3, 0.3};

    GrandSlamAllocator plain;
    GrandSlamAllocator with_priority(true);
    const GlobalPlan base = plain.allocate(services, context);
    const GlobalPlan prio = with_priority.allocate(services, context);
    EXPECT_LE(prio.totalContainers, base.totalContainers);
    // The priority variant carries a priority order for the shared ms.
    EXPECT_FALSE(prio.priorityOrder.empty());
    EXPECT_TRUE(base.priorityOrder.empty());
    EXPECT_EQ(prio.policy, SharingPolicy::Priority);
}

TEST(BaselinePriority, NamesDistinguishVariants)
{
    EXPECT_EQ(GrandSlamAllocator(true).name(), "GrandSLAm+prio");
    EXPECT_EQ(RhythmAllocator(true).name(), "Rhythm+prio");
}

} // namespace
} // namespace erms
