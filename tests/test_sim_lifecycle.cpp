/**
 * @file
 * Regression tests for the simulator's scale-out / dispatch paths:
 * backlog redistribution on dedicated scale-out, round-robin cursor
 * hygiene, container-id order across scale-in, and the
 * draining-container lifecycle (scale in under load without losing
 * queued calls).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/catalog.hpp"
#include "sim/simulation.hpp"

namespace erms {
namespace {

MicroserviceId
addMs(MicroserviceCatalog &catalog, const std::string &name, double base_ms,
      int threads, double cv = 0.0)
{
    MicroserviceProfile profile;
    profile.name = name;
    profile.baseServiceMs = base_ms;
    profile.threadsPerContainer = threads;
    profile.serviceCv = cv;
    profile.cpuSlowdown = 0.0; // keep capacity load-independent
    profile.memSlowdown = 0.0;
    profile.networkMs = 0.1;
    return catalog.add(profile);
}

std::size_t
totalQueued(const std::vector<ContainerView> &views)
{
    std::size_t total = 0;
    for (const ContainerView &view : views)
        total += view.queued;
    return total;
}

TEST(DedicatedScaling, ScaleOutRedistributesBacklog)
{
    // One dedicated container far below capacity accumulates a backlog;
    // scaling the dedicated partition out must spread that backlog over
    // the new replicas exactly like a shared-pool scale-out does,
    // instead of stranding it on the old replica.
    MicroserviceCatalog catalog;
    const auto ms = addMs(catalog, "dedicated-hot", 200.0, 1);
    DependencyGraph g(0, ms);

    SimConfig config;
    config.horizonMinutes = 3;
    config.warmupMinutes = 0;
    config.seed = 5;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    // ~20 req/s against 5 req/s of capacity: backlog grows fast.
    svc.rate = 1200.0;
    sim.addService(svc);
    sim.setDedicatedContainerCount(ms, 0, 1);

    std::size_t backlog_before = 0;
    std::size_t worst_queue_after = 0;
    std::size_t new_replica_load = 0;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        if (minute != 0)
            return;
        backlog_before = totalQueued(s.containerViews(ms));
        s.setDedicatedContainerCount(ms, 0, 4);
        const auto views = s.containerViews(ms);
        ASSERT_EQ(views.size(), 4u);
        for (std::size_t i = 0; i < views.size(); ++i) {
            worst_queue_after =
                std::max(worst_queue_after, views[i].queued);
            if (i > 0) // replicas added by the scale-out
                new_replica_load += views[i].queued +
                                    static_cast<std::size_t>(
                                        views[i].busy);
        }
    });
    sim.run();

    // A minute of ~20 req/s against 5 req/s capacity: hundreds queued.
    ASSERT_GT(backlog_before, 100u);
    // Redistribution engaged the new replicas immediately...
    EXPECT_GT(new_replica_load, 0u);
    // ...and no single replica kept more than a skewed share of the
    // backlog (fair share is ~1/4; allow slack for dispatch ties).
    EXPECT_LT(worst_queue_after, backlog_before / 2);
}

TEST(RoundRobin, CursorStaysWrappedToDeploymentSize)
{
    // Regression: the RR cursor grew without bound (one increment per
    // probe, never reduced) and was never rebased when the deployment
    // changed size. It must stay within the container-object count.
    MicroserviceCatalog catalog;
    const auto ms = addMs(catalog, "rr", 5.0, 2, 0.3);
    DependencyGraph g(0, ms);

    SimConfig config;
    config.horizonMinutes = 2;
    config.warmupMinutes = 0;
    config.dispatch = DispatchPolicy::RoundRobin;
    config.seed = 9;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    svc.rate = 1800.0;
    sim.addService(svc);
    sim.setContainerCount(ms, 3);
    sim.run();

    // ~3600 dispatches through 3 replicas: an unbounded cursor would
    // sit in the thousands.
    EXPECT_GE(sim.metrics().requestsCompleted, 1000u);
    EXPECT_LT(sim.roundRobinCursor(ms), sim.containerViews(ms).size());
}

TEST(RoundRobin, SpreadsCallsEvenlyAcrossReplicas)
{
    // With never-finishing jobs every dispatch stays visible as
    // busy + queued on the replica that received it: perfect rotation
    // means the per-replica totals differ by at most one.
    MicroserviceCatalog catalog;
    const auto ms = addMs(catalog, "rr-even", 1.0e9, 1);
    DependencyGraph g(0, ms);

    SimConfig config;
    config.horizonMinutes = 1;
    config.warmupMinutes = 0;
    config.dispatch = DispatchPolicy::RoundRobin;
    config.seed = 13;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    svc.rate = 240.0;
    sim.addService(svc);
    sim.setContainerCount(ms, 4);
    sim.run();

    const auto views = sim.containerViews(ms);
    ASSERT_EQ(views.size(), 4u);
    std::size_t lo = SIZE_MAX, hi = 0;
    std::size_t total = 0;
    for (const ContainerView &view : views) {
        const std::size_t picks =
            view.queued + static_cast<std::size_t>(view.busy);
        lo = std::min(lo, picks);
        hi = std::max(hi, picks);
        total += picks;
    }
    EXPECT_GT(total, 100u);
    EXPECT_LE(hi - lo, 1u);
}

TEST(DeploymentOrder, ContainersStayInIdOrderAcrossScaleIn)
{
    // Idle replicas leave at once on scale-in, and on an evenly spread
    // fleet the placement policy evicts the first candidate, so each
    // removal takes the front of the deployment. The remaining replicas
    // must still be in container-id order, the order every
    // order-sensitive reader (minute sums, eviction, crash victims,
    // round-robin, views) depends on.
    MicroserviceCatalog catalog;
    const auto ms = addMs(catalog, "ordered", 5.0, 1);
    Simulation sim(catalog, SimConfig{});
    for (const int count : {6, 4, 7, 2, 5, 1, 3}) {
        sim.setContainerCount(ms, count);
        const auto views = sim.containerViews(ms);
        ASSERT_EQ(views.size(), static_cast<std::size_t>(count));
        for (std::size_t i = 1; i < views.size(); ++i)
            EXPECT_LT(views[i - 1].id, views[i].id)
                << "after scaling to " << count;
    }
}

TEST(Draining, ScaleInUnderLoadRedispatchesAndEventuallyErases)
{
    // Scale in while replicas are busy *and* have queued calls: the
    // queued calls must be redispatched immediately (none lost), the
    // drained replicas must disappear once their in-flight jobs finish,
    // and every generated request must eventually complete.
    MicroserviceCatalog catalog;
    const auto ms = addMs(catalog, "drain", 100.0, 2, 0.3);
    DependencyGraph g(0, ms);

    SimConfig config;
    config.horizonMinutes = 5;
    config.warmupMinutes = 0;
    config.seed = 21;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    // Minute 0 overloads 3x2 threads at 100 ms (capacity 3600/min);
    // afterwards the deployment drains the backlog.
    svc.rateSeries = {6000.0, 0.0, 0.0, 0.0, 0.0};
    sim.addService(svc);
    sim.setContainerCount(ms, 3);

    bool saw_draining_with_busy = false;
    bool drained_queues_empty = true;
    std::size_t queued_before = 0, queued_after = 0;
    std::size_t objects_at_minute_3 = SIZE_MAX;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        if (minute == 0) {
            queued_before = totalQueued(s.containerViews(ms));
            s.setContainerCount(ms, 1);
            for (const ContainerView &view : s.containerViews(ms)) {
                if (view.draining) {
                    saw_draining_with_busy |= view.busy > 0;
                    drained_queues_empty &= view.queued == 0;
                }
            }
            queued_after = totalQueued(s.containerViews(ms));
        }
        if (minute == 3)
            objects_at_minute_3 = s.containerViews(ms).size();
    });
    sim.run();

    ASSERT_GT(queued_before, 100u); // the scale-in hit a real backlog
    EXPECT_TRUE(saw_draining_with_busy);
    // Queued calls moved off the drained replicas at scale-in time...
    EXPECT_TRUE(drained_queues_empty);
    // ...without losing any (redispatch preserves the backlog size).
    EXPECT_EQ(queued_after, queued_before);
    // Drained replicas were erased once their busy jobs completed.
    EXPECT_EQ(objects_at_minute_3, 1u);
    EXPECT_EQ(sim.containerCount(ms), 1);
    // Nothing was lost end to end.
    EXPECT_EQ(sim.metrics().requestsCompleted,
              sim.metrics().requestsGenerated);
}

} // namespace
} // namespace erms
