/**
 * @file
 * §6.5.2 reproduction: scaling overhead of the Online Scaling pipeline,
 * measured with google-benchmark.
 *  - Latency Target Computation on dependency graphs of growing size
 *    (paper: ~15 ms on average, ~300 ms for a 1000+-microservice graph);
 *  - full multiplexing plans over many services;
 *  - one interference-aware placement decision across a host fleet
 *    (paper: resource provisioning ~200 ms);
 *  - event-engine throughput, raw and under the simulator.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>

#include "common/rng.hpp"
#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "provision/batch_placement.hpp"
#include "provision/interference_aware.hpp"
#include "runner/parallel_runner.hpp"
#include "scaling/multiplexing.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "workload/synth_trace.hpp"

using namespace erms;

namespace {

/** One random service graph over a fresh catalog of `nodes` services. */
SynthTrace
makeSingleGraphTrace(int nodes)
{
    SynthTraceConfig config;
    config.microserviceCount = nodes;
    config.serviceCount = 1;
    config.minGraphSize = nodes;
    config.maxGraphSize = nodes;
    config.seed = 23;
    return makeSynthTrace(config);
}

void
BM_LatencyTargetComputation(benchmark::State &state)
{
    const int nodes = static_cast<int>(state.range(0));
    const SynthTrace trace = makeSingleGraphTrace(nodes);
    LatencyTargetSolver solver(trace.catalog, ClusterCapacity{});
    ServiceScalingRequest request;
    request.graph = &trace.graphs.front();
    request.workload = 10000.0;
    const Interference itf{0.3, 0.3};

    // Time a feasible solve: double the SLA until the graph fits it, so an
    // early infeasibility exit is never what gets measured.
    request.slaMs = 50.0 * trace.graphs.front().depth();
    bool feasible = solver.solve(request, itf).feasible;
    for (int tries = 0; !feasible && tries < 8; ++tries) {
        request.slaMs *= 2.0;
        feasible = solver.solve(request, itf).feasible;
    }
    if (!feasible) {
        state.SkipWithError("no feasible SLA for the LTC graph");
        return;
    }

    for (auto _ : state) {
        auto result = solver.solve(request, itf);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(std::to_string(nodes) + " microservices, SLA " +
                   std::to_string(static_cast<int>(request.slaMs)) + " ms");
}
BENCHMARK(BM_LatencyTargetComputation)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiplexingPlan(benchmark::State &state)
{
    const int service_count = static_cast<int>(state.range(0));
    SynthTraceConfig config;
    config.microserviceCount = 2000;
    config.serviceCount = service_count;
    config.minGraphSize = 30;
    config.maxGraphSize = 70;
    config.slaRelativeToKnee = true;
    config.seed = 29;
    const SynthTrace trace = makeSynthTrace(config);

    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < trace.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = trace.graphs[i].service();
        svc.graph = &trace.graphs[i];
        svc.slaMs = trace.slaMs[i];
        svc.workload = trace.workloads[i];
        services.push_back(svc);
    }
    MultiplexingPlanner planner(trace.catalog, ClusterCapacity{});
    const Interference itf{0.3, 0.3};

    // Time feasible plans only, not early infeasibility exits.
    if (!planner.plan(services, itf).feasible) {
        state.SkipWithError("infeasible plan fixture");
        return;
    }

    for (auto _ : state) {
        auto plan = planner.plan(services, itf);
        benchmark::DoNotOptimize(plan);
    }
    state.SetLabel(std::to_string(service_count) +
                   " services, knee-relative SLAs");
}
BENCHMARK(BM_MultiplexingPlan)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void
BM_PlacementDecision(benchmark::State &state)
{
    const std::size_t host_count = static_cast<std::size_t>(state.range(0));
    Rng rng(31);
    std::vector<HostView> hosts(host_count);
    for (std::size_t h = 0; h < host_count; ++h) {
        hosts[h].id = static_cast<HostId>(h);
        hosts[h].cpuAllocatedCores = rng.uniform(0.0, 20.0);
        hosts[h].memAllocatedMb = rng.uniform(0.0, 40000.0);
        hosts[h].backgroundCpuUtil = rng.uniform(0.0, 0.5);
        hosts[h].backgroundMemUtil = rng.uniform(0.0, 0.5);
    }
    ProvisionConfig config;
    config.popGroupSize = 64; // POP grouping (§5.4)
    InterferenceAwarePlacement policy(config);

    for (auto _ : state) {
        auto pick = policy.placeContainer(hosts, 0.1, 200.0);
        benchmark::DoNotOptimize(pick);
    }
    state.SetLabel(std::to_string(host_count) + " hosts");
}
BENCHMARK(BM_PlacementDecision)
    ->Arg(20)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

void
BM_BatchProvisioning(benchmark::State &state)
{
    // The paper's §6.5.2 anchor: scale <= 1000 containers across 5000
    // hosts (~200 ms in their deployment).
    const std::size_t host_count = 5000;
    const int container_count = static_cast<int>(state.range(0));
    Rng rng(37);
    std::vector<HostView> hosts(host_count);
    for (std::size_t h = 0; h < host_count; ++h) {
        hosts[h].id = static_cast<HostId>(h);
        hosts[h].cpuAllocatedCores = rng.uniform(0.0, 20.0);
        hosts[h].memAllocatedMb = rng.uniform(0.0, 40000.0);
        hosts[h].backgroundCpuUtil = rng.uniform(0.0, 0.5);
        hosts[h].backgroundMemUtil = rng.uniform(0.0, 0.5);
    }
    MicroserviceCatalog catalog;
    std::unordered_map<MicroserviceId, int> deltas;
    for (int m = 0; m < 20; ++m) {
        MicroserviceProfile profile;
        profile.name = "ms" + std::to_string(m);
        deltas[catalog.add(profile)] = container_count / 20;
    }
    ProvisionConfig config;
    config.popGroupSize = 64;

    for (auto _ : state) {
        InterferenceAwarePlacement policy(config);
        auto result = placeBatch(catalog, hosts, deltas, policy);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(std::to_string(container_count) +
                   " containers / 5000 hosts");
}
BENCHMARK(BM_BatchProvisioning)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelSimulationSweep(benchmark::State &state)
{
    // Speedup of the experiment runner itself: a fixed 8-run simulation
    // sweep executed with 1..N workers. Per-run seeds derive from the
    // run index, so every worker count produces identical metrics.
    const int workers = static_cast<int>(state.range(0));
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "sweep-ms";
    profile.baseServiceMs = 10.0;
    profile.threadsPerContainer = 2;
    profile.serviceCv = 0.4;
    const MicroserviceId ms = catalog.add(profile);
    const DependencyGraph graph(0, ms);

    for (auto _ : state) {
        RunnerOptions options;
        options.workers = workers;
        ParallelRunner runner(options);
        std::vector<std::function<double()>> tasks;
        for (std::uint64_t run = 0; run < 8; ++run) {
            tasks.push_back([&, run] {
                SimConfig config;
                config.horizonMinutes = 2;
                config.seed = deriveRunSeed(101, run);
                Simulation sim(catalog, config);
                ServiceWorkload svc;
                svc.id = 0;
                svc.graph = &graph;
                svc.rate = 4000.0 + 500.0 * static_cast<double>(run);
                sim.addService(svc);
                sim.setContainerCount(ms, 4);
                sim.run();
                return sim.metrics().p95(0);
            });
        }
        auto results = runner.runAll(std::move(tasks));
        benchmark::DoNotOptimize(results);
    }
    state.SetLabel(std::to_string(workers) + " workers / 8 runs");
}
BENCHMARK(BM_ParallelSimulationSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------
// Event-engine throughput (events/second in the items_per_second
// column).
// ---------------------------------------------------------------------

/** Deterministic offset stream (splitmix64). */
std::uint64_t
mixOffset(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Raw queue: a self-perpetuating population of 4096 timers (every
 *  dispatched event posts a successor at a pseudo-random offset), the
 *  pure engine cost with no simulator logic on top. Stops after
 *  exactly `total_events` dispatches. */
std::uint64_t
runRawQueue(std::uint64_t total_events)
{
    EventQueue q;
    std::uint64_t state = 1;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        state = mixOffset(state);
        q.post(state % 1024, EventRecord{.a = i, .type = 1});
    }
    std::uint64_t dispatched = 0;
    bool done = false;
    q.drain(~static_cast<SimTime>(0), done, [&](const EventRecord &rec) {
        state = mixOffset(state + rec.a);
        q.postAfter(1 + state % 1024, EventRecord{.a = rec.a, .type = 1});
        done = ++dispatched == total_events;
    });
    return dispatched;
}

void
BM_EventEngineRawDispatch(benchmark::State &state)
{
    constexpr std::uint64_t kEvents = 2'000'000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        const std::uint64_t events = runRawQueue(kEvents);
        total += events;
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventEngineRawDispatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The suite's largest simulation configuration: 8 independent copies
 *  of a two-service, 9-microservice fan-out workload at high load (16
 *  services, 72 microservices), one simulated minute. Returns the
 *  dispatched event count. */
std::uint64_t
runSimScenario()
{
    constexpr int kScale = 8;
    MicroserviceCatalog catalog;
    char name_buf[32];
    auto add = [&](const char *name, int copy, double base_ms,
                   int threads) {
        MicroserviceProfile profile;
        std::snprintf(name_buf, sizeof name_buf, "%s%d", name, copy);
        profile.name = name_buf;
        profile.baseServiceMs = base_ms;
        profile.threadsPerContainer = threads;
        profile.serviceCv = 0.6;
        profile.networkMs = 0.2;
        return catalog.add(profile);
    };

    std::vector<MicroserviceId> ids;
    std::vector<DependencyGraph> graphs;
    graphs.reserve(2 * kScale);
    for (int s = 0; s < kScale; ++s) {
        auto mk = [&](const char *n, double ms, int th) {
            const MicroserviceId id = add(n, s, ms, th);
            ids.push_back(id);
            return id;
        };
        const MicroserviceId root = mk("root", 3.0, 8);
        const MicroserviceId a = mk("a", 6.0, 4);
        const MicroserviceId b = mk("b", 8.0, 4);
        const MicroserviceId c = mk("c", 5.0, 4);
        const MicroserviceId d = mk("d", 4.0, 4);
        const MicroserviceId tail = mk("tail", 2.0, 8);
        const MicroserviceId logg = mk("log", 1.5, 8);
        const MicroserviceId cache = mk("cache", 1.0, 8);
        const MicroserviceId db = mk("db", 1.0, 8);

        DependencyGraph g0(2 * s, root);
        g0.addCall(root, a, 0);
        g0.addCall(root, b, 0);
        g0.addCall(a, cache, 0);
        g0.addCall(b, db, 0);
        g0.addCall(root, tail, 1);
        DependencyGraph g1(2 * s + 1, root);
        g1.addCall(root, c, 0);
        g1.addCall(root, d, 0);
        g1.addCall(c, logg, 0);
        g1.addCall(root, tail, 1);
        graphs.push_back(g0);
        graphs.push_back(g1);
    }

    SimConfig config;
    config.horizonMinutes = 1;
    config.warmupMinutes = 0;
    config.seed = 17;
    Simulation sim(catalog, config);
    for (DependencyGraph &g : graphs) {
        ServiceWorkload svc;
        svc.id = g.service();
        svc.graph = &g;
        svc.rate = 60000.0;
        sim.addService(svc);
    }
    for (MicroserviceId ms : ids)
        sim.setContainerCount(ms, 6);
    sim.run();
    return sim.metrics().eventsDispatched;
}

void
BM_EventEngineSimulation(benchmark::State &state)
{
    // Timed end to end; items/second counts dispatched simulator events.
    std::uint64_t total = 0;
    for (auto _ : state) {
        const std::uint64_t events = runSimScenario();
        total += events;
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventEngineSimulation)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
