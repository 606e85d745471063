/**
 * @file
 * Dispatch-refactor regression suite for the dense-SoA / batched
 * dispatch hot path:
 *
 *  - a 20-seed differential fuzz pass drives randomized workloads
 *    (random tree graphs, rates, priorities, container counts) with
 *    mid-run scale events, faults, and resilience policies through a
 *    plain run() and through coordinated minute stepping (pause at
 *    every boundary, resume from the caller), and byte-compares a
 *    hexfloat metrics digest — a stop that loses or repeats a record,
 *    a deferred controller call landing at the wrong sequence
 *    position, or any RNG-stream split fails loudly;
 *  - repeat-run determinism pins the same digest across back-to-back
 *    runs of one configuration;
 *  - a pool-lifetime churn test floods the stale-queue-entry path
 *    (timeouts + hedges abandoning attempts whose jobs sit queued on
 *    draining/crashing containers) so AddressSanitizer can prove the
 *    queue-scan removal in dequeueAttempt and the stale-id skips in
 *    popQueuedJob/reassignQueue never double-release a pooled
 *    CallContext (scripts/check.sh runs this binary under ASan).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "sim/simulation.hpp"

namespace erms {
namespace {

/** A randomized shared-microservice workload, fully determined by the
 *  seed: the same seed always builds the same catalog, graphs, rates,
 *  and initial container counts. */
struct FuzzWorkload
{
    MicroserviceCatalog catalog;
    std::vector<std::unique_ptr<DependencyGraph>> graphs;
    std::vector<MicroserviceId> microservices;
    std::vector<ServiceId> serviceIds;
    std::vector<double> rates;
    std::vector<int> initialContainers; ///< parallel to microservices
};

FuzzWorkload
buildWorkload(std::uint64_t seed)
{
    FuzzWorkload w;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ca1ab1eULL);

    const int n_ms = 4 + static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < n_ms; ++i) {
        MicroserviceProfile profile;
        char name[16];
        std::snprintf(name, sizeof name, "ms%d", i);
        profile.name = name;
        profile.baseServiceMs = rng.uniform(0.5, 5.0);
        profile.threadsPerContainer =
            static_cast<int>(rng.uniformInt(2, 8));
        profile.serviceCv = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.2, 0.9);
        profile.networkMs = rng.uniform(0.05, 0.3);
        w.microservices.push_back(w.catalog.add(profile));
        w.initialContainers.push_back(
            static_cast<int>(rng.uniformInt(2, 5)));
    }

    // Random trees over random subsets: microservices are shared across
    // services (the Erms premise), each appearing at most once per tree.
    const int n_svc = 2 + static_cast<int>(rng.uniformInt(0, 1));
    for (int s = 0; s < n_svc; ++s) {
        std::vector<MicroserviceId> pool = w.microservices;
        rng.shuffle(pool);
        const std::size_t n_nodes = static_cast<std::size_t>(
            rng.uniformInt(3, static_cast<std::int64_t>(pool.size())));
        const ServiceId svc = static_cast<ServiceId>(100 + s);
        auto graph = std::make_unique<DependencyGraph>(svc, pool[0]);
        for (std::size_t i = 1; i < n_nodes; ++i) {
            const MicroserviceId parent = pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))];
            const int stage = static_cast<int>(rng.uniformInt(0, 1));
            const double multiplicity =
                rng.bernoulli(0.2) ? 2.0 : 1.0;
            graph->addCall(parent, pool[i], stage, multiplicity);
        }
        w.serviceIds.push_back(svc);
        w.rates.push_back(rng.uniform(1000.0, 5000.0));
        w.graphs.push_back(std::move(graph));
    }
    return w;
}

void
appendHex(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a ", v);
    out += buf;
}

void
appendInt(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu ",
                  static_cast<unsigned long long>(v));
    out += buf;
}

/** Hexfloat digest of everything a run observes: ULP-exact, so two
 *  runs compare byte-for-byte. */
std::string
metricsDigest(const SimMetrics &metrics,
              const std::vector<ServiceId> &services,
              const std::vector<MicroserviceId> &microservices)
{
    std::string out;
    appendInt(out, metrics.requestsGenerated);
    appendInt(out, metrics.requestsCompleted);
    appendInt(out, metrics.requestsFailed);
    appendInt(out, metrics.eventsDispatched);
    appendInt(out, metrics.faults.containerCrashes);
    appendInt(out, metrics.faults.containerRestarts);
    appendInt(out, metrics.faults.firstAttempts);
    appendInt(out, metrics.faults.callRetries);
    appendInt(out, metrics.faults.hedgesLaunched);
    appendInt(out, metrics.faults.hedgeWins);
    appendInt(out, metrics.faults.callTimeouts);
    appendInt(out, metrics.faults.crashFailures);
    appendInt(out, metrics.faults.callsFailed);
    out += "\n";
    for (ServiceId svc : services) { // caller-sorted, deterministic
        const auto it = metrics.endToEndMs.find(svc);
        if (it == metrics.endToEndMs.end())
            continue;
        appendInt(out, svc);
        appendInt(out, it->second.count());
        appendHex(out, it->second.mean());
        appendHex(out, it->second.p50());
        appendHex(out, it->second.p95());
        appendHex(out, it->second.min());
        appendHex(out, it->second.max());
        const auto failed = metrics.failedByService.find(svc);
        appendInt(out, failed == metrics.failedByService.end()
                           ? 0
                           : failed->second);
        out += "\n";
    }
    for (const ProfilingRecord &rec : metrics.profiling) {
        appendInt(out, rec.microservice);
        appendInt(out, rec.minute);
        appendHex(out, rec.tailLatencyMs);
        appendHex(out, rec.meanLatencyMs);
        appendHex(out, rec.perContainerCalls);
        appendHex(out, rec.cpuUtil);
        appendHex(out, rec.memUtil);
        appendInt(out, rec.sampleCount);
        appendInt(out, static_cast<std::uint64_t>(rec.containers));
        out += "\n";
    }
    for (MicroserviceId ms : microservices) { // sorted-ids idiom
        const auto it = metrics.containerTimeline.find(ms);
        if (it == metrics.containerTimeline.end())
            continue;
        appendInt(out, ms);
        for (const auto &[minute, count] : it->second) {
            appendInt(out, minute);
            appendInt(out, static_cast<std::uint64_t>(count));
        }
        out += "\n";
    }
    return out;
}

/** Run one seeded workload to completion and digest it. Scale churn,
 *  faults, and resilience are all on, so the run exercises ordered
 *  scale-in, draining containers with queued work, abandoned attempts,
 *  and the crash/restart path — the exact surfaces the dispatch
 *  refactor touched. `stepped` runs it by coordinated minute stepping
 *  instead of one run() call. */
std::string
runDigest(std::uint64_t seed, bool stepped)
{
    const FuzzWorkload w = buildWorkload(seed);

    SimConfig config;
    config.hostCount = 6;
    config.horizonMinutes = 3;
    config.warmupMinutes = 1;
    config.containerStartupMs = 400.0;
    config.seed = seed;
    Simulation sim(w.catalog, config);

    FaultConfig faults;
    faults.seed = seed ^ 0xfa17ULL;
    faults.crashesPerMinute = 1.5;
    faults.restartDelayMs = 1500.0;
    faults.slowdownsPerMinute = 0.5;
    sim.setFaultConfig(faults);

    ResilienceConfig resilience;
    resilience.maxRetries = 1;
    resilience.timeoutMs = 25.0;
    resilience.hedgeDelayMs = 10.0;
    sim.setResilienceConfig(resilience);

    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
        ServiceWorkload svc;
        svc.id = w.serviceIds[i];
        svc.graph = w.graphs[i].get();
        svc.rate = w.rates[i];
        svc.slaMs = 50.0;
        sim.addService(svc);
    }
    for (std::size_t i = 0; i < w.microservices.size(); ++i)
        sim.setContainerCount(w.microservices[i], w.initialContainers[i]);

    // Seeded scale events at every minute boundary: the callback's RNG
    // stream depends only on the call sequence (one call per minute),
    // so plain and stepped runs see identical scale decisions.
    auto churn = std::make_shared<Rng>(seed + 0x5ca1eULL);
    const std::vector<MicroserviceId> ids = w.microservices;
    sim.setMinuteCallback([churn, ids](Simulation &s, int) {
        for (MicroserviceId ms : ids) {
            if (churn->bernoulli(0.4))
                s.setContainerCount(
                    ms, 1 + static_cast<int>(churn->uniformInt(0, 4)));
        }
    });

    if (stepped) {
        sim.setCoordinatedPause(true);
        sim.beginRun();
        while (sim.advanceToMinuteBoundary() >= 0) {
        }
    } else {
        sim.run();
    }
    return metricsDigest(sim.metrics(), w.serviceIds, w.microservices);
}

/**
 * 20-seed differential fuzz: a plain run() and the same run stepped
 * minute by minute must agree byte-for-byte on every randomized
 * workload. Every pause stops the queue's drain at a minute boundary
 * and resumes it later, and every controller call is deferred to the
 * resume, so agreement pins the stop/resume path and the deferred
 * callback's sequence position against the uninterrupted run.
 */
TEST(DispatchDeterminism, TwentySeedFuzzSteppedMatchesPlain)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string plain = runDigest(seed, /*stepped=*/false);
        const std::string stepped = runDigest(seed, /*stepped=*/true);
        ASSERT_EQ(plain, stepped) << "stepping diverged at seed " << seed;
        ASSERT_FALSE(plain.empty());
    }
}

/** Back-to-back runs of one configuration must be byte-identical —
 *  catches any residual dependence on unordered-container iteration
 *  order or reused-allocation addresses. */
TEST(DispatchDeterminism, RepeatRunsAreByteIdentical)
{
    const std::string first = runDigest(7, /*stepped=*/false);
    const std::string second = runDigest(7, /*stepped=*/false);
    EXPECT_EQ(first, second);
}

/**
 * Pool-lifetime churn (the ASan pin for the stale-queue-entry hazard):
 * tight timeouts and hedges abandon attempts whose jobs are still
 * queued on containers that scale-in concurrently drains, so queues
 * accumulate stale (ctx, attempt) entries that popQueuedJob /
 * reassignQueue must skip via the slotOf(...) < 0 check — and must
 * never re-release. MinuteScratch::releaseCtx asserts on double
 * release, and under ASan (scripts/check.sh) any touch of a recycled
 * context beyond the pool's own storage faults immediately.
 */
TEST(PoolLifetime, StaleQueueEntriesSurviveScaleChurn)
{
    const FuzzWorkload w = buildWorkload(42);

    SimConfig config;
    config.hostCount = 4;
    config.horizonMinutes = 4;
    config.warmupMinutes = 0;
    config.containerStartupMs = 800.0;
    config.seed = 42;
    Simulation sim(w.catalog, config);

    FaultConfig faults;
    faults.crashesPerMinute = 4.0; // crashed containers drop queues
    faults.restartDelayMs = 1000.0;
    sim.setFaultConfig(faults);

    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.timeoutMs = 4.0;   // abandon queued attempts aggressively
    resilience.hedgeDelayMs = 2.0; // duplicate attempts race everywhere
    sim.setResilienceConfig(resilience);

    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
        ServiceWorkload svc;
        svc.id = w.serviceIds[i];
        svc.graph = w.graphs[i].get();
        svc.rate = 6000.0; // saturate the pools so queues stay deep
        sim.addService(svc);
    }
    for (MicroserviceId ms : w.microservices)
        sim.setContainerCount(ms, 2);

    // Whipsaw scaling: collapse to one container (drains with a full
    // queue → reassignQueue walks stale entries) then re-expand.
    sim.setMinuteCallback([ids = w.microservices](Simulation &s, int m) {
        for (MicroserviceId ms : ids)
            s.setContainerCount(ms, m % 2 == 0 ? 1 : 4);
    });

    sim.run();

    const SimMetrics &metrics = sim.metrics();
    EXPECT_GT(metrics.requestsCompleted, 0u);
    // The hazard paths must actually have fired for this pin to mean
    // anything: abandoned attempts, hedges, and crash-dropped queues.
    EXPECT_GT(metrics.faults.callTimeouts, 0u);
    EXPECT_GT(metrics.faults.hedgesLaunched, 0u);
    EXPECT_GT(metrics.faults.containerCrashes, 0u);
}

} // namespace
} // namespace erms
