/**
 * @file
 * Tests for the fault-injection and resilience layer: schedule
 * determinism and stream decoupling, the byte-identical-when-disabled
 * contract, crash/restart capacity dynamics, retry/timeout/hedge edge
 * cases, straggler windows, and whole-run reproducibility.
 */

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "model/catalog.hpp"
#include "sim/simulation.hpp"
#include "telemetry/monitor.hpp"

namespace erms {
namespace {

MicroserviceId
addSimpleMs(MicroserviceCatalog &catalog, const std::string &name,
            double base_ms = 5.0, int threads = 4)
{
    MicroserviceProfile profile;
    profile.name = name;
    profile.baseServiceMs = base_ms;
    profile.threadsPerContainer = threads;
    profile.serviceCv = 0.3;
    profile.cpuSlowdown = 1.0;
    profile.memSlowdown = 1.0;
    profile.networkMs = 0.1;
    return catalog.add(profile);
}

struct FaultRunResult
{
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    double p95 = 0.0;
    FaultStats faults{};
    int finalContainers = 0;
};

FaultRunResult
runFaultSim(const MicroserviceCatalog &catalog, const DependencyGraph &graph,
            const FaultConfig &fault, const ResilienceConfig &resilience,
            double rate, int containers, int horizon_minutes = 3,
            std::uint64_t seed = 1)
{
    SimConfig config;
    config.horizonMinutes = horizon_minutes;
    config.warmupMinutes = 0;
    config.seed = seed;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &graph;
    svc.slaMs = 100.0;
    svc.rate = rate;
    sim.addService(svc);
    for (MicroserviceId id : graph.nodes())
        sim.setContainerCount(id, containers);
    sim.setFaultConfig(fault);
    sim.setResilienceConfig(resilience);
    sim.run();

    FaultRunResult result;
    result.completed = sim.metrics().requestsCompleted;
    result.failed = sim.metrics().requestsFailed;
    result.p95 = sim.metrics().p95(0);
    result.faults = sim.metrics().faults;
    result.finalContainers = sim.containerCount(graph.root());
    return result;
}

TEST(FaultSchedule, IsAPureFunctionOfConfig)
{
    FaultConfig config;
    config.seed = 1234;
    config.crashesPerMinute = 3.0;
    config.slowdownsPerMinute = 2.0;
    const SimTime horizon = 10 * kMinuteUs;

    const FaultSchedule a = buildFaultSchedule(config, 20, horizon);
    const FaultSchedule b = buildFaultSchedule(config, 20, horizon);
    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    for (std::size_t i = 0; i < a.crashes.size(); ++i) {
        EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
        EXPECT_EQ(a.crashes[i].victimDraw, b.crashes[i].victimDraw);
    }
    ASSERT_EQ(a.slowdowns.size(), b.slowdowns.size());
    for (std::size_t i = 0; i < a.slowdowns.size(); ++i) {
        EXPECT_EQ(a.slowdowns[i].start, b.slowdowns[i].start);
        EXPECT_EQ(a.slowdowns[i].end, b.slowdowns[i].end);
        EXPECT_EQ(a.slowdowns[i].host, b.slowdowns[i].host);
    }

    // ~3/min over 10 minutes: the Poisson schedule is near the mean.
    EXPECT_GT(a.crashes.size(), 10u);
    EXPECT_LT(a.crashes.size(), 90u);
    // Time-ascending, inside the horizon, hosts in range.
    for (std::size_t i = 1; i < a.crashes.size(); ++i)
        EXPECT_LE(a.crashes[i - 1].at, a.crashes[i].at);
    for (const SlowdownWindow &window : a.slowdowns) {
        EXPECT_LT(window.start, horizon);
        EXPECT_GT(window.end, window.start);
        EXPECT_GE(window.host, 0);
        EXPECT_LT(window.host, 20);
    }

    // A different seed moves the schedule.
    FaultConfig other = config;
    other.seed = 99;
    const FaultSchedule c = buildFaultSchedule(other, 20, horizon);
    ASSERT_FALSE(c.crashes.empty());
    EXPECT_NE(a.crashes.front().at, c.crashes.front().at);
}

TEST(FaultSchedule, CrashAndSlowdownStreamsAreDecoupled)
{
    FaultConfig config;
    config.seed = 77;
    config.crashesPerMinute = 2.0;
    config.slowdownsPerMinute = 1.0;
    const SimTime horizon = 5 * kMinuteUs;
    const FaultSchedule base = buildFaultSchedule(config, 8, horizon);

    // Turning slowdowns off must not move a single crash, and vice versa.
    FaultConfig no_slow = config;
    no_slow.slowdownsPerMinute = 0.0;
    const FaultSchedule crashes_only = buildFaultSchedule(no_slow, 8, horizon);
    ASSERT_EQ(base.crashes.size(), crashes_only.crashes.size());
    for (std::size_t i = 0; i < base.crashes.size(); ++i)
        EXPECT_EQ(base.crashes[i].at, crashes_only.crashes[i].at);

    FaultConfig no_crash = config;
    no_crash.crashesPerMinute = 0.0;
    const FaultSchedule slow_only = buildFaultSchedule(no_crash, 8, horizon);
    ASSERT_EQ(base.slowdowns.size(), slow_only.slowdowns.size());
    for (std::size_t i = 0; i < base.slowdowns.size(); ++i) {
        EXPECT_EQ(base.slowdowns[i].start, slow_only.slowdowns[i].start);
        EXPECT_EQ(base.slowdowns[i].host, slow_only.slowdowns[i].host);
    }
}

TEST(FaultInjection, DisabledConfigLeavesRunBitIdentical)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "ctl");
    DependencyGraph g(0, ms);

    const auto run = [&](bool configure) {
        SimConfig config;
        config.horizonMinutes = 3;
        config.warmupMinutes = 0;
        config.seed = 5;
        Simulation sim(catalog, config);
        ServiceWorkload svc;
        svc.id = 0;
        svc.graph = &g;
        svc.rate = 900.0;
        sim.addService(svc);
        sim.setContainerCount(ms, 2);
        if (configure) {
            // Default-constructed configs: no faults, no resilience.
            sim.setFaultConfig(FaultConfig{});
            sim.setResilienceConfig(ResilienceConfig{});
        }
        sim.run();
        return std::pair<std::uint64_t, double>(
            sim.metrics().requestsCompleted, sim.metrics().p95(0));
    };

    const auto plain = run(false);
    const auto configured = run(true);
    EXPECT_EQ(plain.first, configured.first);
    EXPECT_EQ(plain.second, configured.second); // bit-identical
}

TEST(FaultInjection, CrashesKillContainersAndRestartsRestoreCapacity)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "crashy");
    DependencyGraph g(0, ms);

    FaultConfig fault;
    fault.seed = 21;
    fault.crashesPerMinute = 6.0;
    fault.restartDelayMs = 500.0;

    ResilienceConfig resilience;
    resilience.maxRetries = 2;

    const FaultRunResult result =
        runFaultSim(catalog, g, fault, resilience, 600.0, 4);
    EXPECT_GT(result.faults.containerCrashes, 0u);
    // Every crash is followed by a kubelet restart...
    EXPECT_EQ(result.faults.containerRestarts,
              result.faults.containerCrashes);
    // ...so planned capacity survives the run.
    EXPECT_EQ(result.finalContainers, 4);
    EXPECT_GT(result.completed, 0u);
}

TEST(FaultInjection, DisabledRestartLosesCapacityPermanently)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "perma");
    DependencyGraph g(0, ms);

    FaultConfig fault;
    fault.seed = 22;
    fault.crashesPerMinute = 2.0;
    fault.restartDelayMs = -1.0; // kubelet off; no controller installed

    const FaultRunResult result =
        runFaultSim(catalog, g, fault, ResilienceConfig{}, 600.0, 6);
    EXPECT_GT(result.faults.containerCrashes, 0u);
    EXPECT_EQ(result.faults.containerRestarts, 0u);
    // No kubelet: capacity degrades towards the one-replica floor the
    // dispatch path maintains (pickContainer spawns a replacement only
    // when every container of a deployment is gone or draining).
    EXPECT_LT(result.finalContainers, 6);
    EXPECT_GE(result.finalContainers, 1);
}

TEST(Resilience, RetryBudgetExhaustedFailsTheRequest)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "always-bad");
    DependencyGraph g(0, ms);

    FaultConfig fault;
    fault.callFailureProbability = 1.0; // every attempt fails

    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.retryBackoffMs = 1.0;

    const FaultRunResult result =
        runFaultSim(catalog, g, fault, resilience, 300.0, 2, 2);
    EXPECT_EQ(result.completed, 0u);
    EXPECT_GT(result.failed, 0u);
    EXPECT_GT(result.faults.transientFailures, 0u);
    // Each failed call burned its full budget: first + 2 retries.
    EXPECT_EQ(result.faults.callRetries, 2 * result.faults.callsFailed);
    EXPECT_NEAR(result.faults.retryAmplification(), 3.0, 0.2);
}

TEST(Resilience, TimeoutShorterThanServiceTimeFailsEveryAttempt)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "slow", 50.0);
    DependencyGraph g(0, ms);

    ResilienceConfig resilience;
    resilience.timeoutMs = 1.0; // far below the 50ms service time
    resilience.maxRetries = 0;

    FaultConfig fault;
    fault.crashesPerMinute = 0.0;
    // anyFaults() is false, but resilience timeouts are independent of
    // fault injection.
    const FaultRunResult result =
        runFaultSim(catalog, g, FaultConfig{}, resilience, 120.0, 4, 2);
    (void)fault;
    EXPECT_EQ(result.completed, 0u);
    EXPECT_GT(result.failed, 0u);
    EXPECT_GT(result.faults.callTimeouts, 0u);
    EXPECT_EQ(result.faults.callTimeouts, result.faults.callsFailed);
}

TEST(Resilience, TimeoutWithRetriesBurnsTheWholeBudget)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "slow-retry", 50.0);
    DependencyGraph g(0, ms);

    ResilienceConfig resilience;
    resilience.timeoutMs = 1.0;
    resilience.maxRetries = 2;
    resilience.retryBackoffMs = 1.0;

    const FaultRunResult result =
        runFaultSim(catalog, g, FaultConfig{}, resilience, 120.0, 4, 2);
    EXPECT_EQ(result.completed, 0u);
    EXPECT_GT(result.failed, 0u);
    // Retried attempts time out too, so timeouts exceed first attempts.
    EXPECT_GT(result.faults.callTimeouts, result.faults.firstAttempts);
    EXPECT_GT(result.faults.retryAmplification(), 1.5);
}

TEST(Resilience, TransientFailuresAreAbsorbedByRetries)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "flaky");
    DependencyGraph g(0, ms);

    FaultConfig fault;
    fault.seed = 31;
    fault.callFailureProbability = 0.10;

    ResilienceConfig resilience;
    resilience.maxRetries = 4;
    resilience.retryBackoffMs = 1.0;

    const FaultRunResult result =
        runFaultSim(catalog, g, fault, resilience, 900.0, 3);
    EXPECT_GT(result.faults.transientFailures, 0u);
    EXPECT_GT(result.faults.retryAmplification(), 1.05);
    // Failing needs 5 consecutive losses (p = 1e-5): essentially all
    // requests survive.
    const double total =
        static_cast<double>(result.completed + result.failed);
    EXPECT_GT(static_cast<double>(result.completed), 0.999 * total);
}

TEST(Resilience, HedgedRequestsWinAndCancelTheLoser)
{
    MicroserviceCatalog catalog;
    const auto ms = addSimpleMs(catalog, "hedged", 20.0, 2);
    DependencyGraph g(0, ms);

    ResilienceConfig resilience;
    resilience.hedgeDelayMs = 5.0; // well below typical queue+service time

    // Enough load on few threads that the primary often sits in a queue
    // when the hedge fires.
    const FaultRunResult result =
        runFaultSim(catalog, g, FaultConfig{}, resilience, 2400.0, 3, 2);
    EXPECT_GT(result.faults.hedgesLaunched, 0u);
    EXPECT_GT(result.faults.hedgeWins, 0u);
    EXPECT_LE(result.faults.hedgeWins, result.faults.hedgesLaunched);
    // Hedging must never lose work: no failures on a healthy cluster.
    EXPECT_EQ(result.failed, 0u);
    EXPECT_GT(result.completed, 0u);
}

TEST(FaultInjection, SlowdownWindowsInflateTailLatency)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "straggled";
    profile.baseServiceMs = 8.0;
    profile.threadsPerContainer = 4;
    profile.serviceCv = 0.3;
    profile.cpuSlowdown = 0.8; // interference-sensitive
    profile.memSlowdown = 0.2;
    profile.networkMs = 0.1;
    const auto ms = catalog.add(profile);
    DependencyGraph g(0, ms);

    FaultConfig fault;
    fault.seed = 41;
    fault.slowdownsPerMinute = 12.0;
    fault.slowdownDurationMs = 20000.0;
    fault.slowdownFactor = 4.0;

    const FaultRunResult healthy =
        runFaultSim(catalog, g, FaultConfig{}, ResilienceConfig{}, 900.0, 2);
    const FaultRunResult straggled =
        runFaultSim(catalog, g, fault, ResilienceConfig{}, 900.0, 2);
    EXPECT_GT(straggled.faults.slowdownWindows, 0u);
    EXPECT_GT(straggled.p95, healthy.p95);
    EXPECT_EQ(straggled.failed, 0u); // slowdowns delay, never fail
}

TEST(FaultInjection, FaultRunsAreReproducible)
{
    MicroserviceCatalog catalog;
    const auto root = addSimpleMs(catalog, "root", 4.0);
    const auto leaf = addSimpleMs(catalog, "leaf", 6.0);
    DependencyGraph g(0, root);
    g.addCall(root, leaf, 0);

    FaultConfig fault;
    fault.seed = 51;
    fault.crashesPerMinute = 4.0;
    fault.restartDelayMs = 800.0;
    fault.slowdownsPerMinute = 3.0;
    fault.callFailureProbability = 0.02;

    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.timeoutMs = 80.0;
    resilience.hedgeDelayMs = 25.0;

    const FaultRunResult a =
        runFaultSim(catalog, g, fault, resilience, 900.0, 3);
    const FaultRunResult b =
        runFaultSim(catalog, g, fault, resilience, 900.0, 3);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.p95, b.p95); // bit-identical
    EXPECT_EQ(a.faults.containerCrashes, b.faults.containerCrashes);
    EXPECT_EQ(a.faults.callRetries, b.faults.callRetries);
    EXPECT_EQ(a.faults.hedgesLaunched, b.faults.hedgesLaunched);
    EXPECT_EQ(a.faults.callTimeouts, b.faults.callTimeouts);
}

TEST(FaultTelemetry, MonitorCountersMatchFaultStats)
{
    // Every FaultStats increment has its monitor hook beside it: once a
    // last snapshot follows run(), each fault counter series, summed
    // over its labels, equals its FaultStats field.
    MicroserviceCatalog catalog;
    const auto root = addSimpleMs(catalog, "root", 4.0);
    const auto leaf = addSimpleMs(catalog, "leaf", 20.0, 2);
    DependencyGraph g(0, root);
    g.addCall(root, leaf, 0);

    FaultConfig fault;
    fault.seed = 61;
    fault.crashesPerMinute = 12.0;
    fault.restartDelayMs = 500.0;
    fault.slowdownsPerMinute = 4.0;
    fault.slowdownFactor = 4.0;
    fault.callFailureProbability = 0.05;

    // The leaf's 20 ms mean service time (cv 0.3) outlasts the hedge
    // delay most of the time and the timeout now and then.
    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.timeoutMs = 30.0;
    resilience.hedgeDelayMs = 15.0;

    SimConfig config;
    config.horizonMinutes = 3;
    config.warmupMinutes = 0;
    config.seed = 7;
    Simulation sim(catalog, config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    svc.slaMs = 100.0;
    svc.rate = 2400.0;
    sim.addService(svc);
    for (MicroserviceId id : g.nodes())
        sim.setContainerCount(id, 3);
    sim.setFaultConfig(fault);
    sim.setResilienceConfig(resilience);
    sim.run();
    monitor.takeSnapshot(sim.now());

    const telemetry::TelemetrySnapshot &last = monitor.snapshots().back();
    const auto total = [&](const std::string &name) {
        std::uint64_t sum = 0;
        for (const telemetry::SeriesRef series : last.named(name))
            sum += series.counterValue();
        return sum;
    };
    const FaultStats &stats = sim.metrics().faults;
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"erms_retries_total", stats.callRetries},
        {"erms_hedges_total", stats.hedgesLaunched},
        {"erms_timeouts_total", stats.callTimeouts},
        {"erms_transient_failures_total", stats.transientFailures},
        {"erms_crash_failures_total", stats.crashFailures},
        {"erms_container_crashes_total", stats.containerCrashes},
        {"erms_container_restarts_total", stats.containerRestarts},
        {"erms_slowdown_windows_total", stats.slowdownWindows},
    };
    for (const auto &[name, count] : expected) {
        EXPECT_GT(count, 0u) << name;
        EXPECT_EQ(total(name), count) << name;
    }
}

} // namespace
} // namespace erms
