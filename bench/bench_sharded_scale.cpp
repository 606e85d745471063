/**
 * @file
 * Taobao-scale sharding benchmark: a 500-service catalog (100 app
 * groups of 5 services sharing a db and a cache tier within the group,
 * ~50µs stages) on a 1200-host fleet, executed through the sharded
 * coordinator at K in {1, 2, 4, 8} shards. Measures events/s and
 * resident memory per shard count and prints one row per K to stdout
 * (progress goes to stderr).
 *
 * Two determinism gates make the numbers comparable (the bench exits
 * nonzero when either fails):
 *  - per K, event counts must be identical across repetitions run with
 *    different worker-thread counts (shards share no mutable state
 *    during a lockstep round);
 *  - K = 1 must dispatch exactly the event count of a plain unsharded
 *    Simulation (the coordinator adds machinery, never events).
 * Event counts are NOT comparable across different K > 1: each shard
 * draws from its own deriveRunSeed stream, so the workloads are
 * different — equally deterministic — experiments.
 *
 * Memory columns: vm_rss_kb is the resident set right after the run
 * (per-config signal); vm_hwm_kb is the kernel's high-water mark,
 * which is monotone across configs within one process — compare rss,
 * read hwm only as the whole-process peak.
 *
 * Usage: bench_sharded_scale
 * The committed BENCH_sharded_scale.json is frozen history of an older
 * tree; perfbench's taobao_sharded workload is the live measurement of
 * this fixture (EXPERIMENTS.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "model/catalog.hpp"
#include "model/latency_model.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/simulation.hpp"

using namespace erms;

namespace {

constexpr int kGroups = 100;
constexpr int kServicesPerGroup = 5;
constexpr int kHosts = 1200;
constexpr int kMinutes = 2;
constexpr double kRatePerMinute = 300.0;
constexpr std::uint64_t kSeed = 2026;

/** The 500-service fixture; graphs are stable once built (ServiceWorkload
 *  keeps pointers into `graphs`). */
struct Fixture
{
    MicroserviceCatalog catalog;
    std::vector<DependencyGraph> graphs;
    std::vector<ServiceWorkload> services;
};

MicroserviceId
addMs(MicroserviceCatalog &catalog, const std::string &name, double base_ms,
      int threads)
{
    MicroserviceProfile profile;
    profile.name = name;
    profile.resources = ResourceSpec{0.1, 200.0};
    profile.threadsPerContainer = threads;
    profile.baseServiceMs = base_ms;
    profile.serviceCv = 0.3;
    profile.cpuSlowdown = 0.5;
    profile.memSlowdown = 0.6;
    profile.networkMs = 0.01;
    const MicroserviceId id = catalog.add(profile);
    catalog.setModel(id, approximateModelFromProfile(profile));
    return id;
}

/**
 * 100 groups, each a connected component: 5 services whose graphs are
 * front -> {cache, mid} -> db, with the cache and db tiers shared by
 * all 5 services of the group and never across groups. Stage times sit
 * around 50µs (0.05 ms), the regime where per-event overhead — not
 * service work — dominates, which is what sharding accelerates.
 */
void
buildFixture(Fixture &fx)
{
    fx.graphs.reserve(kGroups * kServicesPerGroup);
    fx.services.reserve(kGroups * kServicesPerGroup);
    ServiceId next_service = 0;
    for (int g = 0; g < kGroups; ++g) {
        const std::string prefix = "g" + std::to_string(g);
        const MicroserviceId cache =
            addMs(fx.catalog, prefix + "-cache", 0.04, 8);
        const MicroserviceId db = addMs(fx.catalog, prefix + "-db", 0.06, 4);
        for (int s = 0; s < kServicesPerGroup; ++s) {
            const std::string svc = prefix + "s" + std::to_string(s);
            const MicroserviceId front =
                addMs(fx.catalog, svc + "-front", 0.05, 8);
            const MicroserviceId mid =
                addMs(fx.catalog, svc + "-mid", 0.05, 4);
            DependencyGraph graph(next_service, front);
            graph.addCall(front, cache, /*stage=*/0);
            graph.addCall(front, mid, /*stage=*/0);
            graph.addCall(mid, db, /*stage=*/0);
            fx.graphs.push_back(std::move(graph));

            ServiceWorkload workload;
            workload.id = next_service;
            workload.graph = &fx.graphs.back();
            workload.slaMs = 5.0;
            workload.rate = kRatePerMinute;
            fx.services.push_back(workload);
            ++next_service;
        }
    }
}

long
readStatusKb(const char *key)
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return -1;
    char line[256];
    long value = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
            std::sscanf(line + std::strlen(key), " %ld", &value);
            break;
        }
    }
    std::fclose(status);
    return value;
}

struct RunResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    long rssKb = -1;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

SimConfig
baseConfig()
{
    SimConfig config;
    config.hostCount = kHosts;
    config.horizonMinutes = kMinutes;
    config.warmupMinutes = 0;
    config.seed = kSeed;
    return config;
}

/** Plain unsharded reference run (the K = 1 equality baseline). */
RunResult
runUnsharded(const Fixture &fx)
{
    Simulation sim(fx.catalog, baseConfig());
    for (const ServiceWorkload &svc : fx.services)
        sim.addService(svc);
    for (const ServiceWorkload &svc : fx.services)
        for (MicroserviceId ms : svc.graph->nodes())
            sim.setContainerCount(ms, 2);
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return RunResult{sim.metrics().eventsDispatched, elapsed.count(),
                     readStatusKb("VmRSS:")};
}

RunResult
runSharded(const Fixture &fx, int shards, int workers)
{
    shard::ShardedSimConfig config;
    config.base = baseConfig();
    config.shards = shards;
    config.runner.workers = workers;
    shard::ShardedSimulation sim(fx.catalog, config);
    for (const ServiceWorkload &svc : fx.services)
        sim.addService(svc);
    for (const ServiceWorkload &svc : fx.services)
        for (MicroserviceId ms : svc.graph->nodes())
            sim.setContainerCount(ms, 2);
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return RunResult{sim.eventsDispatched(), elapsed.count(),
                     readStatusKb("VmRSS:")};
}

} // namespace

int
main()
{
    const std::vector<int> shard_counts = {1, 2, 4, 8};
    const std::vector<int> worker_reps = {1, 3};

    Fixture fx;
    buildFixture(fx);
    std::fprintf(stderr,
                 "catalog: %zu microservices, %zu services, %d hosts, "
                 "%d min horizon\n",
                 fx.catalog.size(), fx.services.size(), kHosts, kMinutes);

    std::fprintf(stderr, "unsharded reference...\n");
    const RunResult reference = runUnsharded(fx);
    std::fprintf(stderr, "  %llu events in %.2fs (%.2fM ev/s)\n",
                 static_cast<unsigned long long>(reference.events),
                 reference.seconds, reference.eventsPerSec() / 1e6);

    bool gates_ok = true;
    struct Cell
    {
        int shards = 0;
        RunResult best;
        std::vector<std::uint64_t> repEvents;
        long hwmKb = -1;
    };
    std::vector<Cell> cells;
    for (int shards : shard_counts) {
        Cell cell;
        cell.shards = shards;
        for (int workers : worker_reps) {
            std::fprintf(stderr, "K=%d, %d worker(s)...\n", shards,
                         workers);
            const RunResult run = runSharded(fx, shards, workers);
            std::fprintf(stderr, "  %llu events in %.2fs (%.2fM ev/s)\n",
                         static_cast<unsigned long long>(run.events),
                         run.seconds, run.eventsPerSec() / 1e6);
            cell.repEvents.push_back(run.events);
            if (cell.best.events == 0 ||
                run.eventsPerSec() > cell.best.eventsPerSec())
                cell.best = run;
        }
        cell.hwmKb = readStatusKb("VmHWM:");
        // Gate 1: fixed K must be byte-deterministic regardless of how
        // many runner threads execute the lockstep rounds.
        for (std::uint64_t events : cell.repEvents) {
            if (events != cell.repEvents.front()) {
                std::fprintf(stderr,
                             "FAIL: K=%d event counts diverge across "
                             "worker counts\n",
                             shards);
                gates_ok = false;
            }
        }
        cells.push_back(std::move(cell));
    }

    // Gate 2: the single-shard coordinator must replay the unsharded
    // simulation exactly (same seed, same stream, same event count).
    if (cells.front().repEvents.front() != reference.events) {
        std::fprintf(
            stderr,
            "FAIL: K=1 events (%llu) != unsharded events (%llu)\n",
            static_cast<unsigned long long>(cells.front().repEvents.front()),
            static_cast<unsigned long long>(reference.events));
        gates_ok = false;
    }

    double best_multi = 0.0;
    for (const Cell &cell : cells) {
        if (cell.shards > 1)
            best_multi =
                std::max(best_multi, cell.best.eventsPerSec());
    }
    const double single = cells.front().best.eventsPerSec();

    TextTable table({"config", "events", "best_s", "Mev/s", "rep_events",
                     "vm_rss_kb", "vm_hwm_kb"});
    table.row()
        .cell("unsharded")
        .cell(static_cast<std::size_t>(reference.events))
        .cell(reference.seconds)
        .cell(reference.eventsPerSec() / 1e6)
        .cell("-")
        .cell(reference.rssKb)
        .cell("-");
    for (const Cell &cell : cells) {
        std::string reps;
        for (std::uint64_t events : cell.repEvents)
            reps += (reps.empty() ? "" : "/") + std::to_string(events);
        table.row()
            .cell("K=" + std::to_string(cell.shards))
            .cell(static_cast<std::size_t>(cell.best.events))
            .cell(cell.best.seconds)
            .cell(cell.best.eventsPerSec() / 1e6)
            .cell(reps)
            .cell(cell.best.rssKb)
            .cell(cell.hwmKb);
    }
    table.print(std::cout);
    std::printf("single shard: %.2fM ev/s; best multi-shard: %.2fM ev/s "
                "(%.2fx)\n",
                single / 1e6, best_multi / 1e6,
                single > 0.0 ? best_multi / single : 0.0);
    return gates_ok ? 0 : 1;
}
