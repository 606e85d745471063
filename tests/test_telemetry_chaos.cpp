/**
 * @file
 * Chaos suite for the degraded-telemetry layer: determinism of the
 * fault schedules across rebuilds and seeds, per-fault-class behaviour
 * of the TelemetryFaultInjector, the GuardedTelemetryView's rejection /
 * last-known-good / state-machine semantics, and the transparency
 * contract — with no faults active, the guarded observation path is
 * byte-identical to the raw scraped one, and a guarded controller run
 * reproduces the naive controller run exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "fault/telemetry_fault.hpp"
#include "sim/simulation.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"

namespace erms {
namespace {

using telemetry::GuardConfig;
using telemetry::GuardedTelemetryView;
using telemetry::GuardMode;
using telemetry::SimMonitor;
using telemetry::TelemetrySnapshot;

constexpr SimTime kSecondUs = 1000ULL * 1000ULL;

/** Bit-pattern double equality (NaN-proof, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Monitor fixture: a few scrapes of a two-service, two-host cluster
 * with counters, latency histograms, and host gauges all advancing.
 */
void
fillBusyMonitor(SimMonitor &monitor, int scrapes = 6)
{
    std::uint64_t spans = 0;
    for (int scrape = 0; scrape < scrapes; ++scrape) {
        for (int i = 0; i < 200 + 40 * scrape; ++i) {
            monitor.onRequestArrival(0);
            monitor.onRequestArrival(1);
            const bool sampled = ++spans % 10 == 0;
            monitor.onRequestComplete(0, 15.0 + scrape, false, sampled);
            monitor.onRequestComplete(1, 60.0 + scrape, false, sampled);
            monitor.onMicroserviceLatency(3, 8.0 + scrape, sampled);
        }
        monitor.recordHostUtil(0, 0.3 + 0.01 * scrape, 0.4);
        monitor.recordHostUtil(1, 0.5, 0.6);
        monitor.recordDeployment(3, 10 + scrape, 2, 8);
        monitor.takeSnapshot(static_cast<SimTime>(scrape) * 30 *
                             kSecondUs);
    }
}

/** Scripted view: every query answers a settable scalar. */
struct ScriptedView : telemetry::TelemetryView
{
    double rate = 0.0;
    double p95 = 0.0;
    double tail = 0.0;
    double staleness = 0.0;
    Interference itf{};
    int containers = -1;

    double observedRate(ServiceId) const override { return rate; }
    Interference clusterInterference() const override { return itf; }
    double serviceP95Ms(ServiceId) const override { return p95; }
    double microserviceTailMs(MicroserviceId) const override
    {
        return tail;
    }
    int containerCount(MicroserviceId) const override
    {
        return containers;
    }
    double stalenessMs(SimTime) const override { return staleness; }
};

// ---------------------------------------------------------------------
// Schedule / injector determinism
// ---------------------------------------------------------------------

TEST(TelemetryChaosSchedule, DeterministicAcrossRebuildsAndSeeds)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor);
    std::set<std::vector<SimTime>> distinct;
    for (std::uint64_t i = 0; i < 20; ++i) {
        TelemetryFaultConfig config;
        config.seed = deriveRunSeed(0xc0ffee, i);
        config.blackoutsPerMinute = 2.0;
        config.scrapeDropProbability = 0.2;
        config.counterDropProbability = 0.3;
        config.outlierProbability = 0.3;

        const TelemetryFaultSchedule a =
            buildTelemetryFaultSchedule(config, 4, 10 * kMinuteUs);
        const TelemetryFaultSchedule b =
            buildTelemetryFaultSchedule(config, 4, 10 * kMinuteUs);
        ASSERT_EQ(a.blackouts.size(), b.blackouts.size());
        std::vector<SimTime> starts;
        for (std::size_t w = 0; w < a.blackouts.size(); ++w) {
            EXPECT_EQ(a.blackouts[w].start, b.blackouts[w].start);
            EXPECT_EQ(a.blackouts[w].end, b.blackouts[w].end);
            EXPECT_EQ(a.blackouts[w].host, b.blackouts[w].host);
            EXPECT_LT(a.blackouts[w].start, 10 * kMinuteUs);
            EXPECT_LT(a.blackouts[w].host, 4);
            starts.push_back(a.blackouts[w].start);
        }
        distinct.insert(starts);

        const TelemetryFaultInjector injector(config, 4, 10 * kMinuteUs);
        const auto once = injector.perturb(monitor.snapshots());
        const auto twice = injector.perturb(monitor.snapshots());
        ASSERT_EQ(once.size(), twice.size());
        for (std::size_t s = 0; s < once.size(); ++s)
            EXPECT_TRUE(once[s] == twice[s]) << "seed " << i;
    }
    // Different seeds must actually produce different schedules.
    EXPECT_GT(distinct.size(), 15u);
}

// ---------------------------------------------------------------------
// Per-fault-class behaviour
// ---------------------------------------------------------------------

TEST(TelemetryChaosInjector, NoFaultsIsExactIdentity)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor);
    const TelemetryFaultInjector injector({}, 4, 10 * kMinuteUs);
    const auto out = injector.perturb(monitor.snapshots());
    ASSERT_EQ(out.size(), monitor.snapshots().size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(out[i] == monitor.snapshots()[i]);

    // The faulty view with an all-zero config answers every query
    // bit-identically to the raw scraped view.
    const telemetry::ScrapedTelemetryView raw(monitor);
    const FaultyTelemetryView faulty(monitor, {}, 4, 10 * kMinuteUs);
    for (ServiceId svc : {0, 1}) {
        EXPECT_TRUE(sameBits(raw.observedRate(svc),
                             faulty.observedRate(svc)));
        EXPECT_TRUE(sameBits(raw.serviceP95Ms(svc),
                             faulty.serviceP95Ms(svc)));
    }
    EXPECT_TRUE(sameBits(raw.microserviceTailMs(3),
                         faulty.microserviceTailMs(3)));
    EXPECT_EQ(raw.containerCount(3), faulty.containerCount(3));
    EXPECT_TRUE(sameBits(raw.clusterInterference().cpuUtil,
                         faulty.clusterInterference().cpuUtil));
    EXPECT_TRUE(sameBits(raw.stalenessMs(200 * kSecondUs),
                         faulty.stalenessMs(200 * kSecondUs)));
}

TEST(TelemetryChaosInjector, DroppedScrapesVanish)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor);
    TelemetryFaultConfig config;
    config.scrapeDropProbability = 1.0;
    const TelemetryFaultInjector injector(config, 4, 10 * kMinuteUs);
    EXPECT_TRUE(injector.perturb(monitor.snapshots()).empty());

    // And the view degrades to its "no scrapes yet" sentinels.
    const FaultyTelemetryView view(monitor, config, 4, 10 * kMinuteUs);
    EXPECT_EQ(view.observedRate(0), 0.0);
    EXPECT_EQ(view.containerCount(3), -1);
    EXPECT_GT(view.stalenessMs(0), 1e12);
}

TEST(TelemetryChaosInjector, DelayedScrapesSurfaceLate)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 4); // at 0, 30, 60, 90 s
    TelemetryFaultConfig config;
    config.scrapeDelayProbability = 1.0;
    config.scrapeDelayMs = 45000.0;
    const TelemetryFaultInjector injector(config, 4, 10 * kMinuteUs);
    const auto out = injector.perturb(monitor.snapshots());
    // Only snapshots whose stamp + 45 s lies at or before the newest
    // true scrape (90 s) have surfaced: the ones taken at 0 and 30 s.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].at, 0u);
    EXPECT_EQ(out[1].at, 30 * kSecondUs);

    // Controllers therefore observe genuinely stale state.
    const FaultyTelemetryView view(monitor, config, 4, 10 * kMinuteUs);
    const telemetry::ScrapedTelemetryView raw(monitor);
    EXPECT_GT(view.stalenessMs(90 * kSecondUs),
              raw.stalenessMs(90 * kSecondUs));
}

TEST(TelemetryChaosInjector, BlackoutsSilenceHostGauges)
{
    TelemetryFaultConfig config;
    config.blackoutsPerMinute = 4.0;
    config.blackoutDurationMs = 30000.0;
    const TelemetryFaultInjector injector(config, 2, 10 * kMinuteUs);
    ASSERT_FALSE(injector.schedule().blackouts.empty());
    const BlackoutWindow &window = injector.schedule().blackouts.front();

    SimMonitor monitor;
    monitor.recordHostUtil(0, 0.3, 0.4);
    monitor.recordHostUtil(1, 0.5, 0.6);
    monitor.takeSnapshot(window.start); // inside the window
    const auto out = injector.perturb(monitor.snapshots());
    ASSERT_EQ(out.size(), 1u);

    const telemetry::Labels labels = {
        {"host", std::to_string(window.host)}};
    EXPECT_NE(monitor.snapshots()[0].find("erms_host_cpu_util", labels),
              std::nullopt);
    EXPECT_EQ(out[0].find("erms_host_cpu_util", labels), std::nullopt);
    EXPECT_EQ(out[0].find("erms_host_mem_util", labels), std::nullopt);
    // The other host's gauges survive.
    const telemetry::Labels other = {
        {"host", std::to_string(1 - window.host)}};
    EXPECT_NE(out[0].find("erms_host_cpu_util", other), std::nullopt);
}

TEST(TelemetryChaosInjector, CounterUnderReportNeverYieldsNegativeRates)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 8);
    TelemetryFaultConfig config;
    config.counterDropProbability = 1.0;
    config.counterDropFloor = 0.25;
    const TelemetryFaultInjector injector(config, 4, 10 * kMinuteUs);
    const auto out = injector.perturb(monitor.snapshots());
    ASSERT_EQ(out.size(), monitor.snapshots().size());

    bool any_under = false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto true_s = monitor.snapshots()[i].find(
            "erms_requests_total", {{"service", "0"}});
        const auto faulty_s =
            out[i].find("erms_requests_total", {{"service", "0"}});
        ASSERT_NE(true_s, std::nullopt);
        ASSERT_NE(faulty_s, std::nullopt);
        EXPECT_LE(faulty_s->counterValue(), true_s->counterValue());
        any_under |= faulty_s->counterValue() < true_s->counterValue();
    }
    EXPECT_TRUE(any_under);

    // Under-reports make cumulative counters regress between scrapes;
    // the view clamps those deltas like Prometheus rate() clamps
    // counter resets — a rate is never negative or non-finite.
    const FaultyTelemetryView view(monitor, config, 4, 10 * kMinuteUs);
    const double rate = view.observedRate(0);
    EXPECT_GE(rate, 0.0);
    EXPECT_TRUE(std::isfinite(rate));
}

TEST(TelemetryChaosInjector, SpanLossThinsHistograms)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 8);
    TelemetryFaultConfig config;
    config.spanLossProbability = 0.6;
    const TelemetryFaultInjector injector(config, 4, 10 * kMinuteUs);
    const auto out = injector.perturb(monitor.snapshots());
    bool any_thinner = false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto true_s = monitor.snapshots()[i].find(
            "erms_request_latency_ms", {{"service", "0"}});
        const auto faulty_s =
            out[i].find("erms_request_latency_ms", {{"service", "0"}});
        ASSERT_NE(faulty_s, std::nullopt);
        EXPECT_LE(faulty_s->count(), true_s->count());
        EXPECT_LE(faulty_s->sum(), true_s->sum());
        any_thinner |= faulty_s->count() < true_s->count();
    }
    EXPECT_TRUE(any_thinner);
}

TEST(TelemetryChaosInjector, OutliersInflateIntervalQuantiles)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 8);
    TelemetryFaultConfig config;
    config.outlierProbability = 1.0;
    config.outlierFraction = 0.3;
    const FaultyTelemetryView faulty(monitor, config, 4, 10 * kMinuteUs);
    const telemetry::ScrapedTelemetryView raw(monitor);
    // Phantom overflow-bucket mass drags the interval P95 far above the
    // honest estimate (requests in the fixture complete in ~15 ms).
    EXPECT_GT(faulty.serviceP95Ms(0), raw.serviceP95Ms(0) * 5.0);
}

TEST(TelemetryChaosInjector, ClockSkewShiftsObservedStaleness)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 4); // newest at 90 s
    TelemetryFaultConfig config;
    config.clockSkewMs = -20000.0;
    const FaultyTelemetryView view(monitor, config, 4, 10 * kMinuteUs);
    const telemetry::ScrapedTelemetryView raw(monitor);
    EXPECT_DOUBLE_EQ(raw.stalenessMs(100 * kSecondUs), 10000.0);
    EXPECT_DOUBLE_EQ(view.stalenessMs(100 * kSecondUs), 30000.0);
}

// ---------------------------------------------------------------------
// GuardedTelemetryView: rejection, memory, state machine
// ---------------------------------------------------------------------

TEST(TelemetryGuardConfig, RejectsNonsensicalKnobCombinations)
{
    // One loud rejection per validation rule: a guard constructed from
    // a config that cannot work must throw at construction, not
    // misbehave silently later (docs/self_tuning.md).
    const auto expectThrow = [](auto mutate) {
        GuardConfig config;
        mutate(config);
        EXPECT_THROW(telemetry::validateGuardConfig(config), ErmsError);
        auto scripted = std::make_shared<ScriptedView>();
        EXPECT_THROW(GuardedTelemetryView(scripted, config), ErmsError);
    };
    expectThrow([](auto &c) { c.outlierHistory = 1; });
    expectThrow([](auto &c) { c.outlierMinHistory = 1; });
    expectThrow([](auto &c) { c.outlierMinHistory = c.outlierHistory + 1; });
    expectThrow([](auto &c) { c.maxStalenessMs = 0.0; });
    expectThrow([](auto &c) {
        c.maxStalenessMs = std::numeric_limits<double>::infinity();
    });
    expectThrow([](auto &c) { c.maxRateRpm = -1.0; });
    expectThrow([](auto &c) { c.maxLatencyMs = 0.0; });
    expectThrow([](auto &c) { c.maxInterferenceUtil = 0.0; });
    expectThrow([](auto &c) { c.madGateMultiplier = 0.0; });
    expectThrow([](auto &c) {
        c.madGateMultiplier = std::numeric_limits<double>::quiet_NaN();
    });
    expectThrow([](auto &c) { c.relativeGateFactor = 1.0; });
    expectThrow([](auto &c) { c.suspectBadCyclesToFallback = 0; });
    expectThrow([](auto &c) { c.recoveryCleanCycles = 0; });
    telemetry::validateGuardConfig({}); // the default is valid
}

TEST(TelemetryGuard, BoundsRejectionSubstitutesLastGood)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);

    scripted->rate = 500.0;
    EXPECT_DOUBLE_EQ(guard.observedRate(0), 500.0);

    for (double corrupt :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -3.0, 1.0e12}) {
        scripted->rate = corrupt;
        EXPECT_DOUBLE_EQ(guard.observedRate(0), 500.0) << corrupt;
    }
    EXPECT_EQ(guard.stats().rejectedBounds, 4u);
    EXPECT_EQ(guard.stats().substitutedLastGood, 4u);

    // With no good value on record the guard answers the no-data
    // sentinel rather than inventing one.
    scripted->p95 = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(guard.serviceP95Ms(0), 0.0);
}

TEST(TelemetryGuard, OutlierRejectionAfterHistoryWarmup)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);

    scripted->p95 = 100.0;
    for (int i = 0; i < 6; ++i)
        EXPECT_DOUBLE_EQ(guard.serviceP95Ms(0), 100.0);

    // A 100x spike against a settled history is corruption — but its
    // direction is fail-safe (a too-high latency only over-provisions),
    // so the guard serves the relative-gate ceiling, not the raw spike.
    scripted->p95 = 10000.0;
    EXPECT_DOUBLE_EQ(guard.serviceP95Ms(0),
                     guard.config().relativeGateFactor * 100.0);
    EXPECT_EQ(guard.stats().clampedOutliers, 1u);
    EXPECT_EQ(guard.stats().rejectedOutliers, 0u);

    // A collapse is the dangerous direction: rejected outright, served
    // from last-known-good (the ceiling recorded above).
    scripted->p95 = 1.0;
    EXPECT_DOUBLE_EQ(guard.serviceP95Ms(0),
                     guard.config().relativeGateFactor * 100.0);
    EXPECT_EQ(guard.stats().rejectedOutliers, 1u);
    EXPECT_EQ(guard.stats().substitutedLastGood, 1u);

    // An honest regime change (well inside the relative gate) passes.
    scripted->p95 = 160.0;
    EXPECT_DOUBLE_EQ(guard.serviceP95Ms(0), 160.0);
}

TEST(TelemetryGuard, ZeroSentinelAlwaysPassesThrough)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);
    scripted->rate = 800.0;
    EXPECT_DOUBLE_EQ(guard.observedRate(0), 800.0);
    scripted->rate = 0.0; // "no data this window", not an outlier
    EXPECT_DOUBLE_EQ(guard.observedRate(0), 0.0);
    EXPECT_EQ(guard.stats().rejectedBounds, 0u);
    EXPECT_EQ(guard.stats().rejectedOutliers, 0u);
}

TEST(TelemetryGuard, ContainerCountsSkipTheOutlierGate)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);
    scripted->containers = 5;
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(guard.containerCount(3), 5);
    // A controller scaling 5 -> 40 is a legitimate step change.
    scripted->containers = 40;
    EXPECT_EQ(guard.containerCount(3), 40);
    // Absence sentinel passes through.
    scripted->containers = -1;
    EXPECT_EQ(guard.containerCount(3), -1);
    EXPECT_EQ(guard.stats().rejectedOutliers, 0u);
}

TEST(TelemetryGuard, StateMachineTransitionTable)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardConfig config; // suspectBadCyclesToFallback=1, recovery=2
    GuardedTelemetryView guard(scripted, config);
    const double kFresh = 0.0;
    const double kStale = config.maxStalenessMs + 1.0;

    const auto cycle = [&](double staleness) {
        scripted->staleness = staleness;
        guard.beginCycle(0);
        return guard.mode();
    };

    EXPECT_EQ(guard.mode(), GuardMode::Normal);
    // NORMAL + clean -> NORMAL
    EXPECT_EQ(cycle(kFresh), GuardMode::Normal);
    // NORMAL + bad -> SUSPECT
    EXPECT_EQ(cycle(kStale), GuardMode::Suspect);
    // SUSPECT + clean -> NORMAL (one bad cycle was a blip)
    EXPECT_EQ(cycle(kFresh), GuardMode::Normal);
    // NORMAL + bad -> SUSPECT + bad -> FALLBACK
    EXPECT_EQ(cycle(kStale), GuardMode::Suspect);
    EXPECT_EQ(cycle(kStale), GuardMode::Fallback);
    // FALLBACK + bad -> FALLBACK (clean streak resets)
    EXPECT_EQ(cycle(kStale), GuardMode::Fallback);
    // FALLBACK + clean x1 -> FALLBACK (needs recoveryCleanCycles)
    EXPECT_EQ(cycle(kFresh), GuardMode::Fallback);
    // ... a relapse resets the streak ...
    EXPECT_EQ(cycle(kStale), GuardMode::Fallback);
    EXPECT_EQ(cycle(kFresh), GuardMode::Fallback);
    // FALLBACK + clean x recoveryCleanCycles -> SUSPECT (re-validation)
    EXPECT_EQ(cycle(kFresh), GuardMode::Suspect);
    // SUSPECT + clean -> NORMAL: recovery complete
    EXPECT_EQ(cycle(kFresh), GuardMode::Normal);

    // Rejections are the other "bad" signal: a corrupt query in an
    // otherwise fresh cycle pushes NORMAL -> SUSPECT at the next tick.
    scripted->rate = std::numeric_limits<double>::quiet_NaN();
    guard.observedRate(0);
    EXPECT_EQ(cycle(kFresh), GuardMode::Suspect);
    // ... and with clean queries afterwards it settles back to NORMAL.
    EXPECT_EQ(cycle(kFresh), GuardMode::Normal);
}

// ---------------------------------------------------------------------
// Transparency + whole-run determinism
// ---------------------------------------------------------------------

struct DynamicRunResult
{
    std::uint64_t requestsCompleted = 0;
    std::vector<double> latencies;
};

enum class RunMode
{
    Naive,
    Guarded,
};

/** One telemetry-driven dynamic run; optionally wrapped in the guard,
 *  optionally with observability faults injected. */
DynamicRunResult
runChaosDynamic(const MicroserviceCatalog &catalog, const Application &app,
                const ErmsController &controller, RunMode mode,
                std::uint64_t seed, const TelemetryFaultConfig *faults,
                std::shared_ptr<GuardedTelemetryView> *guard_out = nullptr)
{
    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    auto monitor = std::make_shared<SimMonitor>();
    sim.setMonitor(monitor.get());

    std::shared_ptr<const telemetry::TelemetryView> base;
    if (faults != nullptr) {
        base = std::make_shared<FaultyTelemetryView>(
            *monitor, *faults, config.hostCount,
            static_cast<SimTime>(config.horizonMinutes) * kMinuteUs);
    } else {
        base = std::make_shared<telemetry::ScrapedTelemetryView>(*monitor);
    }

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = 300.0;
        svc.rate = 6000.0;
        sim.addService(svc);
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = 300.0;
        spec.workload = 6000.0;
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }
    const GlobalPlan initial =
        controller.plan(services, Interference{0.2, 0.2});
    sim.applyPlan(initial);

    std::shared_ptr<GuardedTelemetryView> guard;
    if (mode == RunMode::Guarded) {
        guard = std::make_shared<GuardedTelemetryView>(base);
        if (guard_out != nullptr)
            *guard_out = guard;
        sim.setMinuteCallback(makeGuardedController(
            controller.makeAutoscaler(services, guard), guard, managed));
    } else {
        sim.setMinuteCallback(controller.makeAutoscaler(services, base));
    }
    sim.run();

    DynamicRunResult result;
    result.requestsCompleted = sim.metrics().requestsCompleted;
    for (const auto &graph : app.graphs) {
        auto it = sim.metrics().endToEndMs.find(graph.service());
        if (it == sim.metrics().endToEndMs.end())
            continue;
        result.latencies.insert(result.latencies.end(),
                                it->second.samples().begin(),
                                it->second.samples().end());
    }
    return result;
}

TEST(TelemetryChaosTransparency, GuardedViewIsByteIdenticalOn20CleanSeeds)
{
    // Over clean scrape streams from 20 seeded runs, every guarded
    // query must answer bit-identically to the raw scraped view and
    // the mode must stay NORMAL throughout.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    for (std::uint64_t i = 0; i < 20; ++i) {
        const std::uint64_t seed = deriveRunSeed(0x7a5, i);
        SimConfig config;
        config.horizonMinutes = 3;
        config.seed = seed;
        Simulation sim(catalog, config);
        auto monitor = std::make_shared<SimMonitor>();
        sim.setMonitor(monitor.get());
        auto raw =
            std::make_shared<telemetry::ScrapedTelemetryView>(*monitor);
        auto guard = std::make_shared<GuardedTelemetryView>(raw);

        std::vector<ServiceSpec> services;
        std::vector<MicroserviceId> all_ms;
        for (const auto &graph : app.graphs) {
            ServiceWorkload svc;
            svc.id = graph.service();
            svc.graph = &graph;
            svc.slaMs = 300.0;
            svc.rate = 4000.0;
            sim.addService(svc);
            ServiceSpec spec;
            spec.id = graph.service();
            spec.graph = &graph;
            spec.slaMs = 300.0;
            spec.workload = 4000.0;
            services.push_back(spec);
            for (MicroserviceId id : graph.nodes())
                all_ms.push_back(id);
        }
        sim.applyPlan(controller.plan(services, Interference{0.2, 0.2}));
        sim.setMinuteCallback([&](Simulation &s, int) {
            guard->beginCycle(s.now());
            EXPECT_EQ(guard->mode(), GuardMode::Normal);
            for (const ServiceSpec &spec : services) {
                EXPECT_TRUE(sameBits(guard->observedRate(spec.id),
                                     raw->observedRate(spec.id)));
                EXPECT_TRUE(sameBits(guard->serviceP95Ms(spec.id),
                                     raw->serviceP95Ms(spec.id)));
            }
            for (MicroserviceId id : all_ms) {
                EXPECT_TRUE(sameBits(guard->microserviceTailMs(id),
                                     raw->microserviceTailMs(id)));
                EXPECT_EQ(guard->containerCount(id),
                          raw->containerCount(id));
            }
            EXPECT_TRUE(sameBits(guard->clusterInterference().cpuUtil,
                                 raw->clusterInterference().cpuUtil));
            EXPECT_TRUE(sameBits(guard->clusterInterference().memUtil,
                                 raw->clusterInterference().memUtil));
        });
        sim.run();
        EXPECT_EQ(guard->stats().rejectedBounds, 0u) << "seed " << seed;
        EXPECT_EQ(guard->stats().rejectedOutliers, 0u) << "seed " << seed;
        EXPECT_EQ(guard->stats().fallbackCycles, 0u) << "seed " << seed;
    }
}

TEST(TelemetryChaosTransparency, GuardedControllerMatchesNaiveWhenClean)
{
    // With no faults, the guarded controller stack must reproduce the
    // naive telemetry-driven run exactly (same completions, same
    // latency samples) — the guardrails are inert in NORMAL mode.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    for (std::uint64_t i = 0; i < 5; ++i) {
        const std::uint64_t seed = deriveRunSeed(0xbee, i);
        const DynamicRunResult naive = runChaosDynamic(
            catalog, app, controller, RunMode::Naive, seed, nullptr);
        const DynamicRunResult guarded = runChaosDynamic(
            catalog, app, controller, RunMode::Guarded, seed, nullptr);
        EXPECT_EQ(naive.requestsCompleted, guarded.requestsCompleted)
            << "seed " << seed;
        EXPECT_EQ(naive.latencies, guarded.latencies) << "seed " << seed;
    }
}

TEST(TelemetryChaosDeterminism, FaultyGuardedRunReplaysExactly)
{
    // The full chaos stack — injector, guarded view, guardrails — is
    // deterministic: the same seeds replay to identical metrics.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    TelemetryFaultConfig faults;
    faults.scrapeDropProbability = 0.2;
    faults.scrapeDelayProbability = 0.3;
    faults.counterDropProbability = 0.3;
    faults.outlierProbability = 0.4;
    faults.blackoutsPerMinute = 1.0;

    for (std::uint64_t i = 0; i < 3; ++i) {
        const std::uint64_t seed = deriveRunSeed(0xd1ce, i);
        const DynamicRunResult a = runChaosDynamic(
            catalog, app, controller, RunMode::Guarded, seed, &faults);
        const DynamicRunResult b = runChaosDynamic(
            catalog, app, controller, RunMode::Guarded, seed, &faults);
        EXPECT_EQ(a.requestsCompleted, b.requestsCompleted)
            << "seed " << seed;
        EXPECT_EQ(a.latencies, b.latencies) << "seed " << seed;
    }
}

TEST(TelemetryChaosGuardrails, FallbackHoldsLastGoodAllocation)
{
    // Under a total telemetry blackout mid-run, the guarded controller
    // must enter FALLBACK and keep serving from the last good
    // allocation instead of tearing capacity down on garbage.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    TelemetryFaultConfig faults;
    faults.scrapeDropProbability = 1.0; // nothing ever lands
    std::shared_ptr<GuardedTelemetryView> guard;
    const DynamicRunResult run =
        runChaosDynamic(catalog, app, controller, RunMode::Guarded,
                        11, &faults, &guard);
    ASSERT_NE(guard, nullptr);
    EXPECT_GT(run.requestsCompleted, 0u);
    // Every post-bootstrap cycle is stale; the machine must have
    // reached (and stayed in) FALLBACK.
    EXPECT_GT(guard->stats().staleCycles, 0u);
    EXPECT_GT(guard->stats().fallbackCycles, 0u);
    EXPECT_EQ(guard->mode(), GuardMode::Fallback);
}

TEST(TelemetryChaosGuardrails, CorrectionsFollowTheModeAndTheRails)
{
    // A scripted inner controller sets counts on a Simulation that never
    // runs; a scripted view under the guard sets each cycle's mode. The
    // rails then correct the inner controller's counts cycle by cycle.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    const MicroserviceId a = app.graphs[0].nodes()[0];
    const MicroserviceId b = app.graphs[0].nodes()[1];
    Simulation sim(catalog, SimConfig{});
    sim.setContainerCount(a, 4);
    sim.setContainerCount(b, 10);

    auto scripted = std::make_shared<ScriptedView>();
    auto guard = std::make_shared<GuardedTelemetryView>(scripted);
    const double kFresh = 0.0;
    const double kStale = guard->config().maxStalenessMs + 1.0;

    struct Cycle
    {
        double staleness;
        bool corruptQuery; ///< the inner controller reads a NaN rate
        int innerA, innerB;
        GuardMode mode;
        int wantA, wantB;
        std::uint64_t clamps, reverts, holds;
    };
    // Rails: up-steps of at most ceil(was * 0.5); FALLBACK floors at
    // ceil(lastGood * min(1.6, 1.25 + 0.25 * (k - 1))) in the k-th
    // consecutive FALLBACK cycle. Last-known-good is {a: 6, b: 8}, from
    // the only clean NORMAL cycle.
    const std::vector<Cycle> cycles = {
        // clean NORMAL: transparent, scale-downs included
        {kFresh, false, 6, 8, GuardMode::Normal, 6, 8, 0, 0, 0},
        // NORMAL, but a query tripped the guard: 6 -> 20 is clamped to
        // 6 + 3, and 8 -> 2 reverted
        {kFresh, true, 20, 2, GuardMode::Normal, 9, 8, 1, 1, 0},
        // SUSPECT: 9 -> 11 is within 9 + 5; 8 -> 4 reverted
        {kStale, false, 11, 4, GuardMode::Suspect, 11, 8, 1, 2, 0},
        // FALLBACK k = 1: floors ceil(6 * 1.25) = 8, ceil(8 * 1.25) = 10
        {kStale, false, 11, 8, GuardMode::Fallback, 11, 10, 1, 2, 1},
        // k = 2: 10 -> 3 reverted, then floored at ceil(8 * 1.5) = 12
        {kStale, false, 11, 3, GuardMode::Fallback, 11, 12, 1, 3, 2},
        // k = 3: the factor stops at the 1.6 ceiling: ceil(8 * 1.6) = 13,
        // while a stays above ceil(6 * 1.6) = 10
        {kStale, false, 11, 12, GuardMode::Fallback, 11, 13, 1, 3, 3},
    };

    std::size_t at = 0;
    const auto inner = [&](Simulation &s, int) {
        if (cycles[at].corruptQuery) {
            scripted->rate = std::numeric_limits<double>::quiet_NaN();
            guard->observedRate(0);
        }
        s.setContainerCount(a, cycles[at].innerA);
        s.setContainerCount(b, cycles[at].innerB);
    };
    GuardrailConfig rails;
    rails.maxScaleStepFraction = 0.5;
    rails.fallbackOverProvisionFactor = 1.25;
    rails.fallbackEscalationPerCycle = 0.25;
    rails.fallbackMaxOverProvisionFactor = 1.6;
    auto stats = std::make_shared<GuardrailStats>();
    const auto controller = makeGuardedController(
        inner, guard, {a, b}, std::make_shared<GuardrailConfig>(rails),
        stats);

    for (at = 0; at < cycles.size(); ++at) {
        const Cycle &cycle = cycles[at];
        scripted->staleness = cycle.staleness;
        controller(sim, static_cast<int>(at));
        EXPECT_EQ(guard->mode(), cycle.mode) << "cycle " << at;
        EXPECT_EQ(sim.containerCount(a), cycle.wantA) << "cycle " << at;
        EXPECT_EQ(sim.containerCount(b), cycle.wantB) << "cycle " << at;
        EXPECT_EQ(stats->cycles, at + 1);
        EXPECT_EQ(stats->limitedCycles, at) << "cycle " << at;
        EXPECT_EQ(stats->upStepClamps, cycle.clamps) << "cycle " << at;
        EXPECT_EQ(stats->scaleDownReverts, cycle.reverts) << "cycle " << at;
        EXPECT_EQ(stats->fallbackHolds, cycle.holds) << "cycle " << at;
    }
}

} // namespace
} // namespace erms
