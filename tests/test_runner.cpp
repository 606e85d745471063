/**
 * @file
 * Tests for the parallel experiment runner: thread-pool execution,
 * ordered result collection, observer accounting, exception propagation,
 * worker-count resolution and its cap at the task count, the nesting
 * rule (a runner built on a pool worker runs inline), and the
 * determinism contract (serial and parallel sweeps of real simulations
 * produce identical metrics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/thread_pool.hpp"
#include "sim/simulation.hpp"

namespace erms {
namespace {

TEST(ThreadPool, ExecutesAllSubmittedJobs)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleCanBeReused)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.waitIdle();
        EXPECT_EQ(counter.load(), 10 * (round + 1));
    }
}

TEST(ThreadPool, ClampsWorkerCountToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelRunner, PreservesTaskOrderRegardlessOfCompletionOrder)
{
    ParallelRunner runner(RunnerOptions{4});
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([i] {
            // Early tasks sleep longest so completion order reverses
            // submission order.
            std::this_thread::sleep_for(
                std::chrono::milliseconds((16 - i) * 2));
            return i * i;
        });
    }
    const std::vector<int> results = runner.runAll(std::move(tasks));
    ASSERT_EQ(results.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, ObserverSeesEveryRunOnce)
{
    struct CountingObserver : RunObserver
    {
        std::vector<int> started, finished;
        double totalWall = 0.0;

        void
        onRunStarted(std::size_t index, std::size_t total) override
        {
            EXPECT_EQ(total, 8u);
            started.push_back(static_cast<int>(index));
        }
        void
        onRunFinished(std::size_t index, std::size_t total,
                      double wall_seconds) override
        {
            EXPECT_EQ(total, 8u);
            EXPECT_GE(wall_seconds, 0.0);
            totalWall += wall_seconds;
            finished.push_back(static_cast<int>(index));
        }
    };

    CountingObserver observer;
    ParallelRunner runner(RunnerOptions{3});
    runner.setObserver(&observer);
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.push_back([i] { return i; });
    runner.runAll(std::move(tasks));

    ASSERT_EQ(observer.started.size(), 8u);
    ASSERT_EQ(observer.finished.size(), 8u);
    std::vector<int> sorted_started = observer.started;
    std::sort(sorted_started.begin(), sorted_started.end());
    std::vector<int> sorted_finished = observer.finished;
    std::sort(sorted_finished.begin(), sorted_finished.end());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(sorted_started[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(sorted_finished[static_cast<std::size_t>(i)], i);
    }
}

TEST(ParallelRunner, RethrowsFirstExceptionInTaskOrder)
{
    ParallelRunner runner(RunnerOptions{4});
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 2 || i == 6)
                throw std::runtime_error("task " + std::to_string(i));
            return i;
        });
    }
    try {
        runner.runAll(std::move(tasks));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 2");
    }
}

TEST(ParallelRunner, WorkerCountResolution)
{
    // An explicit request is taken as is; 0 means the hardware count.
    EXPECT_EQ(resolveWorkerCount(3), 3);
    EXPECT_EQ(resolveWorkerCount(5), 5);
    EXPECT_EQ(resolveWorkerCount(4), 4);
    EXPECT_EQ(resolveWorkerCount(0),
              static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency())));
}

TEST(ParallelRunner, WorkerCountIsCappedAtTheTaskCount)
{
    // A pool is no larger than its work, and never empty.
    EXPECT_EQ(resolveWorkerCount(4, 2), 2);
    EXPECT_EQ(resolveWorkerCount(4, 4), 4);
    EXPECT_EQ(resolveWorkerCount(2, 20), 2);
    EXPECT_EQ(resolveWorkerCount(3, 1), 1);
    EXPECT_EQ(resolveWorkerCount(3, 0), 1);
    EXPECT_EQ(resolveWorkerCount(0, 1), 1);
    EXPECT_EQ(resolveWorkerCount(0, 1000), resolveWorkerCount(0));
}

TEST(ParallelRunner, RunnerBuiltOnAWorkerRunsInline)
{
    // Pools never nest: a runner constructed inside another runner's
    // task resolves to one worker and runs its tasks on the outer
    // task's own thread, whatever its options ask for.
    struct Inner
    {
        int workers = 0;
        bool onTaskThread = false;
        std::vector<int> results;
    };
    ParallelRunner outer(RunnerOptions{3});
    ASSERT_EQ(outer.workerCount(), 3);
    std::vector<std::function<Inner()>> tasks;
    for (int t = 0; t < 6; ++t) {
        tasks.push_back([t] {
            ParallelRunner inner(RunnerOptions{4});
            const std::thread::id self = std::this_thread::get_id();
            std::atomic<bool> same_thread{true};
            std::vector<std::function<int()>> subtasks;
            for (int i = 0; i < 5; ++i)
                subtasks.push_back([&same_thread, self, t, i] {
                    if (std::this_thread::get_id() != self)
                        same_thread = false;
                    return 10 * t + i;
                });
            Inner out;
            out.workers = inner.workerCount();
            out.results = inner.runAll(std::move(subtasks));
            out.onTaskThread = same_thread.load();
            return out;
        });
    }
    const std::vector<Inner> inner = outer.runAll(std::move(tasks));
    for (int t = 0; t < 6; ++t) {
        const Inner &out = inner[static_cast<std::size_t>(t)];
        EXPECT_EQ(out.workers, 1) << t;
        EXPECT_TRUE(out.onTaskThread) << t;
        EXPECT_EQ(out.results, (std::vector<int>{10 * t, 10 * t + 1,
                                                 10 * t + 2, 10 * t + 3,
                                                 10 * t + 4}))
            << t;
    }
    // The caller's thread is no pool worker: a runner built here after
    // the nested batch still gets the workers it asks for.
    EXPECT_EQ(ParallelRunner(RunnerOptions{3}).workerCount(), 3);
}

TEST(ParallelRunner, DefaultIgnoresEnvironment)
{
    // The library reads no process environment: binaries parse
    // ERMS_RUNNER_THREADS into RunnerOptions at their edge
    // (bench/bench_util.hpp), so a default runner neither throws on a
    // malformed value nor takes a well-formed one.
    const int hardware = resolveWorkerCount(0);
    for (const char *value : {"abc", "1"}) {
        ASSERT_EQ(setenv("ERMS_RUNNER_THREADS", value, 1), 0);
        int workers = 0;
        EXPECT_NO_THROW(
            workers = ParallelRunner(RunnerOptions{}).workerCount())
            << value;
        EXPECT_EQ(workers, hardware) << value;
    }
    ASSERT_EQ(unsetenv("ERMS_RUNNER_THREADS"), 0);
}

TEST(Rng, DeriveRunSeedIsStableAndDecorrelated)
{
    // Stable: a pure function of (base, index).
    EXPECT_EQ(deriveRunSeed(7, 0), deriveRunSeed(7, 0));
    EXPECT_EQ(deriveRunSeed(7, 41), deriveRunSeed(7, 41));
    // Distinct runs and distinct bases get distinct seeds.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t base : {1ULL, 7ULL, 42ULL}) {
        for (std::uint64_t index = 0; index < 64; ++index)
            seeds.insert(deriveRunSeed(base, index));
    }
    EXPECT_EQ(seeds.size(), 3u * 64u);
}

/** One small but real simulation run, seeded per run index. */
std::pair<std::uint64_t, double>
simulateRun(const MicroserviceCatalog &catalog, const DependencyGraph &graph,
            std::uint64_t base_seed, std::size_t run_index)
{
    SimConfig config;
    config.horizonMinutes = 2;
    config.warmupMinutes = 0;
    config.seed = deriveRunSeed(base_seed, run_index);
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &graph;
    svc.rate = 800.0 + 100.0 * static_cast<double>(run_index);
    sim.addService(svc);
    sim.setContainerCount(graph.root(), 2);
    sim.run();
    return {sim.metrics().requestsCompleted, sim.metrics().p95(0)};
}

TEST(ParallelRunner, SerialAndParallelSweepsAreByteIdentical)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "runner-determinism";
    profile.baseServiceMs = 6.0;
    profile.threadsPerContainer = 2;
    profile.serviceCv = 0.4;
    const MicroserviceId ms = catalog.add(profile);
    const DependencyGraph graph(0, ms);

    const auto sweep = [&](int workers) {
        ParallelRunner runner(RunnerOptions{workers});
        std::vector<std::function<std::pair<std::uint64_t, double>()>>
            tasks;
        for (std::size_t i = 0; i < 6; ++i) {
            tasks.push_back(
                [&, i] { return simulateRun(catalog, graph, 99, i); });
        }
        return runner.runAll(std::move(tasks));
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, parallel[i].first) << "run " << i;
        // Bit-identical latency, not merely statistically close.
        EXPECT_EQ(serial[i].second, parallel[i].second) << "run " << i;
    }
}

/** Fault metrics of one faulty run, everything that could diverge. */
struct FaultRunDigest
{
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    double p95 = 0.0;

    bool
    operator==(const FaultRunDigest &other) const
    {
        return completed == other.completed && failed == other.failed &&
               crashes == other.crashes && retries == other.retries &&
               timeouts == other.timeouts && p95 == other.p95;
    }
};

FaultRunDigest
simulateFaultyRun(const MicroserviceCatalog &catalog,
                  const DependencyGraph &graph, std::uint64_t base_seed,
                  std::size_t run_index)
{
    SimConfig config;
    config.horizonMinutes = 2;
    config.warmupMinutes = 0;
    config.seed = deriveRunSeed(base_seed, run_index);
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &graph;
    svc.rate = 700.0;
    sim.addService(svc);
    sim.setContainerCount(graph.root(), 3);

    FaultConfig fault;
    fault.seed = deriveRunSeed(base_seed + 1, run_index);
    fault.crashesPerMinute = 4.0;
    fault.restartDelayMs = 600.0;
    // High enough that some requests exhaust the 2-retry budget, so the
    // failure path is exercised in the digest comparison below.
    fault.callFailureProbability = 0.3;
    sim.setFaultConfig(fault);

    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.timeoutMs = 60.0;
    resilience.hedgeDelayMs = 30.0;
    sim.setResilienceConfig(resilience);

    sim.run();
    FaultRunDigest digest;
    digest.completed = sim.metrics().requestsCompleted;
    digest.failed = sim.metrics().requestsFailed;
    digest.crashes = sim.metrics().faults.containerCrashes;
    digest.retries = sim.metrics().faults.callRetries;
    digest.timeouts = sim.metrics().faults.callTimeouts;
    digest.p95 = sim.metrics().p95(0);
    return digest;
}

TEST(ParallelRunner, FaultInjectionSweepsAreIdenticalAcrossWorkerCounts)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "fault-determinism";
    profile.baseServiceMs = 6.0;
    profile.threadsPerContainer = 2;
    profile.serviceCv = 0.4;
    const MicroserviceId ms = catalog.add(profile);
    const DependencyGraph graph(0, ms);

    const auto sweep = [&](int workers) {
        ParallelRunner runner(RunnerOptions{workers});
        std::vector<std::function<FaultRunDigest()>> tasks;
        for (std::size_t i = 0; i < 5; ++i) {
            tasks.push_back(
                [&, i] { return simulateFaultyRun(catalog, graph, 7, i); });
        }
        return runner.runAll(std::move(tasks));
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << "run " << i;
    // The faults actually fired (the comparison is not vacuous).
    std::uint64_t crashes = 0, failed = 0;
    for (const FaultRunDigest &digest : serial) {
        crashes += digest.crashes;
        failed += digest.failed;
    }
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(failed, 0u);
}

} // namespace
} // namespace erms
