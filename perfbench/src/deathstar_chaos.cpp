/**
 * @file
 * deathstar_chaos: Hotel Reservation and Social Network on one 20-host
 * cluster, profiled at setup, replaying diurnal Alibaba-like rates under
 * the Erms autoscaler. The controller sees the cluster only through
 * FaultyTelemetryView -> GuardedTelemetryView -> makeSelfTuningController,
 * while correlated AZ events, container crashes and transient call
 * failures hit the data plane and retries, timeouts and hedging answer
 * them. Host side, each minute step starts after the previous one ends.
 */

#include <algorithm>
#include <memory>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "fault/telemetry_fault.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/monitor.hpp"
#include "tuning/adaptive.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace erms;

namespace {

constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kMaxSetupReps = 40;
/** Independent seeded episodes whose simulated statistics are averaged. */
constexpr int kSubEpisodes = 12;
constexpr int kTracedEpisodes = 2;
constexpr int kMaxEpisodes = 32;
constexpr int kHotelServices = 4;
constexpr std::uint64_t kProfilingSeed = 11;
const Interference kInitialItf{0.25, 0.2};
constexpr SimTime kMinuteUs = 60ULL * 1000ULL * 1000ULL;

/**
 * Forwarding view that counts and (when tracing) times every query. One
 * sits above the guard and one below it; forwarding is exact, so the
 * controller sees bit-for-bit what it would see without them.
 */
class CountingView : public telemetry::TelemetryView
{
  public:
    CountingView(std::shared_ptr<const telemetry::TelemetryView> inner,
                 bool timed)
        : inner_(std::move(inner)), timed_(timed)
    {
    }

    double observedRate(ServiceId s) const override
    {
        return timedCall([&] { return inner_->observedRate(s); });
    }
    Interference clusterInterference() const override
    {
        return timedCall([&] { return inner_->clusterInterference(); });
    }
    double serviceP95Ms(ServiceId s) const override
    {
        return timedCall([&] { return inner_->serviceP95Ms(s); });
    }
    double microserviceTailMs(MicroserviceId ms) const override
    {
        return timedCall([&] { return inner_->microserviceTailMs(ms); });
    }
    int containerCount(MicroserviceId ms) const override
    {
        return timedCall([&] { return inner_->containerCount(ms); });
    }
    double stalenessMs(SimTime now) const override
    {
        return timedCall([&] { return inner_->stalenessMs(now); });
    }

    std::uint64_t queries() const { return queries_; }
    const std::vector<double> &queryUs() const { return queryUs_; }

  private:
    template <typename F>
    auto
    timedCall(F &&f) const -> decltype(f())
    {
        ++queries_;
        if (!timed_)
            return f();
        const auto start = Clock::now();
        auto result = f();
        queryUs_.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
        return result;
    }

    std::shared_ptr<const telemetry::TelemetryView> inner_;
    bool timed_;
    mutable std::uint64_t queries_ = 0;
    mutable std::vector<double> queryUs_;
};

/** Catalog with profiled models, and the service list. */
struct Fixture
{
    MicroserviceCatalog catalog;
    Application hotel;
    Application social;
    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    double sweepS = 0.0;
    double fitMs = 0.0;
    std::size_t samples = 0;
};

std::unique_ptr<Fixture>
prepare(const DeathstarKnobs &k, Tracer &tracer)
{
    auto fx = std::make_unique<Fixture>();
    fx->hotel = makeHotelReservation(fx->catalog, 0);
    fx->social = makeSocialNetwork(fx->catalog, kHotelServices);

    std::vector<const DependencyGraph *> graphs;
    for (const Application *app : {&fx->hotel, &fx->social})
        for (const DependencyGraph &graph : app->graphs)
            graphs.push_back(&graph);

    ProfilingSweepConfig sweep;
    sweep.hostCount = k.hostCount;
    sweep.ratePerService = k.profilingRate;
    sweep.minutesPerCell = k.profilingMinutesPerCell;
    sweep.seed = kProfilingSeed;
    const auto sweepStart = Clock::now();
    std::unordered_map<MicroserviceId, std::vector<ProfilingSample>> samples;
    {
        Tracer::Scope span(tracer, "profiling.sweep", 0);
        samples = collectProfilingSamples(fx->catalog, graphs, sweep);
    }
    fx->sweepS = secondsSince(sweepStart);
    for (const auto &entry : samples)
        fx->samples += entry.second.size();
    const auto fitStart = Clock::now();
    {
        Tracer::Scope span(tracer, "profiling.fit", 0);
        fitAndAttachModels(fx->catalog, samples);
    }
    fx->fitMs = secondsSince(fitStart) * 1e3;

    for (std::size_t s = 0; s < graphs.size(); ++s) {
        const Application &app =
            s < kHotelServices ? fx->hotel : fx->social;
        const std::size_t local = s < kHotelServices ? s : s - kHotelServices;
        ServiceSpec spec;
        spec.id = graphs[s]->service();
        spec.name = app.serviceNames[local];
        spec.graph = graphs[s];
        spec.slaMs = s < kHotelServices ? k.hotelSlaMs : k.socialSlaMs;
        fx->services.push_back(spec);
        for (MicroserviceId id : graphs[s]->nodes())
            fx->managed.push_back(id);
    }
    std::sort(fx->managed.begin(), fx->managed.end());
    fx->managed.erase(std::unique(fx->managed.begin(), fx->managed.end()),
                      fx->managed.end());
    return fx;
}

/** Everything one episode measured. */
struct Episode
{
    /** Fixture assembly: initial plan, simulator, faults, view stack,
     *  controller. */
    double assembleS = 0.0;
    bool initialFeasible = false;
    double wallS = 0.0;
    /** The episode's thread CPU time: its wall time minus the time the
     *  vCPU ran other processes or was stolen by the hypervisor. */
    double cpuS = 0.0;
    std::uint64_t events = 0;
    /** Thread CPU time of each decorator-stack cycle and of the inner
     *  planner call within it. */
    std::vector<double> cycleMs;
    std::vector<double> innerMs;
    std::vector<double> minuteMs;
    double containersMean = 0.0;
    double violationPct = 0.0;
    double failedPct = 0.0;
    FaultStats faults;
    telemetry::GuardStats guard;
    std::size_t tunerAdjustments = 0;
    std::uint64_t queriesAbove = 0;
    std::uint64_t queriesBelow = 0;
    std::vector<double> queryUsAbove;
    std::vector<double> queryUsBelow;
    std::size_t scrapes = 0;
    std::uint64_t fingerprint = 0;
};

Episode
runEpisode(const Fixture &fx, const DeathstarInputs &in, Tracer &tracer,
           std::int64_t episode_id)
{
    const DeathstarKnobs &k = in.knobs;
    const auto assembleStart = Clock::now();
    const int root = tracer.begin("episode", episode_id);

    // The initial deployment carries the controller's headroom plus a
    // margin, so the run does not start with a backlog.
    std::vector<ServiceSpec> services = fx.services;
    for (std::size_t s = 0; s < services.size(); ++s)
        services[s].workload = in.rates[s].front() * 1.3;
    ErmsConfig erms_config;
    erms_config.workloadHeadroom = k.headroom;
    const ErmsController erms(fx.catalog, erms_config);
    GlobalPlan initial;
    {
        // Same best-effort rule as the autoscaler: when the SLA is
        // model-infeasible, plan against a relaxed SLA.
        Tracer::Scope span(tracer, "scaling.initial_plan", episode_id);
        initial = erms.plan(services, kInitialItf);
        std::vector<ServiceSpec> relaxed = services;
        for (double factor : {1.25, 1.6, 2.2}) {
            if (initial.feasible)
                break;
            for (std::size_t s = 0; s < services.size(); ++s)
                relaxed[s].slaMs = services[s].slaMs * factor;
            initial = erms.plan(relaxed, kInitialItf);
        }
    }

    SimConfig config;
    config.hostCount = k.hostCount;
    config.horizonMinutes = k.minutes;
    config.warmupMinutes = k.warmupMinutes;
    config.seed = in.simSeed;
    Simulation sim(fx.catalog, config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);
    sim.setBackgroundLoadAll(kInitialItf.cpuUtil, kInitialItf.memUtil);
    for (std::size_t s = 0; s < fx.services.size(); ++s) {
        ServiceWorkload svc;
        svc.id = services[s].id;
        svc.graph = services[s].graph;
        svc.slaMs = services[s].slaMs;
        svc.rateSeries = in.rates[s];
        sim.addService(svc);
    }
    sim.applyPlan(initial);

    // One AZ schedule drives both planes: the correlation is the seed.
    AzEventConfig az;
    az.seed = in.azSeed;
    az.eventsPerMinute = k.azEventsPerMinute;
    az.eventDurationMs = k.azEventMs;
    FaultConfig faults;
    faults.seed = in.faultSeed;
    faults.crashesPerMinute = k.crashesPerMinute;
    faults.callFailureProbability = k.callFailureProbability;
    faults.azEvents = az;
    faults.slowdownFactor = k.azSlowdownFactor;
    sim.setFaultConfig(faults);
    ResilienceConfig resilience;
    resilience.maxRetries = k.maxRetries;
    resilience.timeoutMs = k.timeoutMs;
    resilience.hedgeDelayMs = k.hedgeDelayMs;
    sim.setResilienceConfig(resilience);

    TelemetryFaultConfig telemetryFaults;
    telemetryFaults.seed = in.telemetryFaultSeed;
    telemetryFaults.azEvents = az;
    telemetryFaults.scrapeDropProbability = k.scrapeDropProbability;
    telemetryFaults.scrapeDelayProbability = k.scrapeDelayProbability;
    const SimTime horizon = static_cast<SimTime>(k.minutes) * kMinuteUs;
    auto faulty = std::make_shared<FaultyTelemetryView>(
        monitor, telemetryFaults, k.hostCount, horizon);
    auto below = std::make_shared<CountingView>(faulty, tracer.enabled());
    auto guard = std::make_shared<telemetry::GuardedTelemetryView>(below);
    auto above = std::make_shared<CountingView>(guard, tracer.enabled());

    double innerMs = 0.0;
    auto planner = erms.makeAutoscaler(services, above);
    auto inner = [&](Simulation &s, int minute) {
        Tracer::Scope span(tracer, "core.inner", minute);
        const double start = threadCpuSeconds();
        planner(s, minute);
        innerMs = (threadCpuSeconds() - start) * 1e3;
    };

    // Recovery after an incident may double a count per cycle, as in
    // the chaos campaigns; the fallback margin keeps its defaults.
    GuardrailConfig rails;
    rails.maxScaleStepFraction = 1.0;
    auto tuner = std::make_shared<tuning::AdaptiveGuardTuner>(
        tuning::knobsFrom(guard->config(), rails.fallbackOverProvisionFactor,
                          rails.fallbackEscalationPerCycle));
    auto stack = makeSelfTuningController(inner, guard, fx.managed, tuner,
                                          rails);

    Episode ep;
    ep.initialFeasible = initial.feasible;
    std::vector<int> containers;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        innerMs = 0.0;
        const double start = threadCpuSeconds();
        {
            Tracer::Scope span(tracer, "core.cycle", minute);
            stack(s, minute);
        }
        ep.cycleMs.push_back((threadCpuSeconds() - start) * 1e3);
        ep.innerMs.push_back(innerMs);
        int total = 0;
        for (MicroserviceId id : fx.managed)
            total += s.containerCount(id);
        containers.push_back(total);
    });

    sim.setCoordinatedPause(true);
    ep.assembleS = secondsSince(assembleStart);
    const auto start = Clock::now();
    const double cpuStart = threadCpuSeconds();
    sim.beginRun();
    for (std::int64_t step = 0;; ++step) {
        const auto minuteStart = Clock::now();
        int minute = 0;
        {
            Tracer::Scope span(tracer, "sim.minute", step);
            minute = sim.advanceToMinuteBoundary();
        }
        ep.minuteMs.push_back(secondsSince(minuteStart) * 1e3);
        if (minute < 0)
            break;
    }
    ep.wallS = secondsSince(start);
    ep.cpuS = threadCpuSeconds() - cpuStart;
    tracer.end(root);

    const SimMetrics &m = sim.metrics();
    ep.events = m.eventsDispatched;
    ep.faults = m.faults;
    ep.guard = guard->stats();
    ep.tunerAdjustments = tuner->adjustments().size();
    ep.queriesAbove = above->queries();
    ep.queriesBelow = below->queries();
    ep.queryUsAbove = above->queryUs();
    ep.queryUsBelow = below->queryUs();
    ep.scrapes = monitor.snapshots().size();

    double sum = 0.0;
    int counted = 0;
    for (std::size_t i = static_cast<std::size_t>(k.warmupMinutes);
         i < containers.size(); ++i, ++counted)
        sum += containers[i];
    ep.containersMean = counted > 0 ? sum / counted : 0.0;

    std::vector<std::pair<ServiceId, double>> slas;
    for (const ServiceSpec &spec : services)
        slas.emplace_back(spec.id, spec.slaMs);
    Fingerprint fp;
    const SimOutcome outcome = simOutcome(m, slas, fp);
    ep.violationPct = outcome.violationPct;
    ep.failedPct = outcome.failedPct;
    fp.add(ep.containersMean);
    ep.fingerprint = fp.value();
    return ep;
}

std::vector<double>
concat(const std::vector<Episode> &eps, std::vector<double> Episode::*field)
{
    std::vector<double> out;
    for (const Episode &ep : eps)
        out.insert(out.end(), (ep.*field).begin(), (ep.*field).end());
    return out;
}

} // namespace

DeathstarInputs
deathstarInputs(std::uint64_t seed)
{
    DeathstarInputs in;
    const DeathstarKnobs &k = in.knobs;
    const std::size_t services = kHotelServices + 3;
    for (std::size_t s = 0; s < services; ++s) {
        const bool hotel = s < kHotelServices;
        in.rates.push_back(alibabaLikeSeries(
            k.minutes, hotel ? k.hotelBase : k.socialBase,
            hotel ? k.hotelPeak : k.socialPeak, k.periodMinutes, 0.05, 0.05,
            1.25, 2, deriveRunSeed(seed, 100 + s)));
    }
    in.simSeed = deriveRunSeed(seed, 1);
    in.faultSeed = deriveRunSeed(seed, 2);
    in.azSeed = deriveRunSeed(seed, 3);
    in.telemetryFaultSeed = deriveRunSeed(seed, 4);
    return in;
}

RunResult
runDeathstarChaos(const RunArgs &args, Tracer &tracer)
{
    const DeathstarKnobs knobs;
    RunResult result;
    Tracer untraced(false);

    std::unique_ptr<Fixture> fx;
    const std::vector<double> setupS = repeatTimed(
        [&](int rep) { fx = prepare(knobs, rep == 0 ? tracer : untraced); },
        kSetupReps, kSetupSeconds, kMaxSetupReps);

    // Sub-episodes draw independent inputs from the run's seed and their
    // simulated statistics are averaged, so one fault schedule does not
    // decide the run. Episodes past them replay sub-episodes in turn (at
    // least one always runs), and a traced run replays each traced
    // sub-episode untraced as well: every replay must reproduce the
    // fingerprint exactly.
    std::vector<DeathstarInputs> inputs;
    for (int e = 0; e < kSubEpisodes; ++e)
        inputs.push_back(deathstarInputs(deriveRunSeed(args.seed, e)));
    std::vector<Episode> plain;
    std::vector<Episode> traced;
    bool replayed = true;
    std::vector<double> referenceMs;
    const auto measureStart = Clock::now();
    if (!args.trace) {
        for (int i = 0; i < kMaxEpisodes; ++i) {
            if (i > kSubEpisodes && secondsSince(measureStart) >= args.seconds)
                break;
            referenceMs.push_back(fastestReferenceMs(kReferenceRuns));
            Episode ep = runEpisode(*fx, inputs[i % kSubEpisodes], untraced, i);
            if (i >= kSubEpisodes)
                replayed &= ep.fingerprint == plain[i % kSubEpisodes].fingerprint;
            plain.push_back(std::move(ep));
        }
    } else {
        for (int e = 0; e < kTracedEpisodes; ++e) {
            plain.push_back(runEpisode(*fx, inputs[e], untraced, 2 * e));
            traced.push_back(runEpisode(*fx, inputs[e], tracer, 2 * e + 1));
            replayed &= traced.back().fingerprint == plain.back().fingerprint;
        }
    }

    const std::size_t subs = std::min<std::size_t>(plain.size(), kSubEpisodes);
    bool feasible = true;
    std::uint64_t transitions = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    Fingerprint fp;
    double violation = 0.0;
    double failed = 0.0;
    double containers = 0.0;
    for (std::size_t e = 0; e < subs; ++e) {
        const Episode &ep = plain[e];
        feasible &= ep.initialFeasible;
        transitions += ep.guard.transitions;
        retries += ep.faults.callRetries;
        hedges += ep.faults.hedgesLaunched;
        fp.add(ep.fingerprint);
        violation += ep.violationPct / static_cast<double>(subs);
        failed += ep.failedPct / static_cast<double>(subs);
        containers += ep.containersMean / static_cast<double>(subs);
    }
    for (const auto *set : {&plain, &traced})
        for (const Episode &ep : *set)
            result.attempted += ep.minuteMs.size() + ep.cycleMs.size();
    result.check(args.trace ? "fingerprint identical between traced and "
                              "untraced episodes"
                            : "fingerprint identical on every replayed "
                              "episode",
                 replayed);
    result.check("initial plans feasible", feasible);
    result.check("guard left NORMAL at least once", transitions > 0);
    result.check("retries > 0", retries > 0);
    result.check("hedges > 0", hedges > 0);
    result.facts["fingerprint"] = std::to_string(fp.value());
    result.facts["episodes"] = std::to_string(plain.size() + traced.size());
    result.facts["sub_episodes"] = std::to_string(subs);
    result.facts["sim_minutes_per_episode"] = std::to_string(knobs.minutes);

    if (!args.trace) {
        // Episode and decision times are thread CPU times, each episode's
        // host-scaled (README) by the reference sample taken before it.
        std::vector<double> wallPerMin;
        std::vector<double> eventsPerS;
        std::vector<double> assembleS;
        std::vector<double> cpuPerMin;
        std::vector<double> clockPerMin;
        for (std::size_t e = 0; e < plain.size(); ++e) {
            const Episode &ep = plain[e];
            const double busyS = ep.cpuS * hostScale({referenceMs[e]});
            wallPerMin.push_back(busyS / knobs.minutes);
            eventsPerS.push_back(static_cast<double>(ep.events) / busyS);
            assembleS.push_back(ep.assembleS);
            cpuPerMin.push_back(ep.cpuS / knobs.minutes);
            clockPerMin.push_back(ep.wallS / knobs.minutes);
        }
        // Decisions of the sub-episodes only, so each input weighs once.
        std::vector<double> decide;
        for (std::size_t e = 0; e < subs; ++e)
            for (double ms : plain[e].cycleMs)
                decide.push_back(ms * hostScale({referenceMs[e]}));
        const double scale = hostScale(referenceMs);
        result.facts["host_scale"] = std::to_string(scale);
        result.facts["unscaled_cpu_s_per_sim_min"] =
            std::to_string(median(cpuPerMin).value);
        result.facts["wall_clock_s_per_sim_min"] =
            std::to_string(median(clockPerMin).value);
        const Percentile prep = median(setupS);
        const double setup = prep.value + median(assembleS).value;
        result.facts["unscaled_setup_s"] = std::to_string(setup);
        result.set("setup_s", setup * scale, "s", prep.samples);
        result.set("wall_s_per_sim_min", median(wallPerMin), "s");
        result.set("events_per_s", median(eventsPerS), "1/s");
        result.set("decide_ms_p50", median(decide), "ms");
        result.set("decide_ms_p90", percentile(decide, 0.9), "ms");
        result.set("peak_rss_mb", procStatusMb("VmHWM:"), "MB");
        result.set("sla_violation_pct", violation, "%", subs);
        result.set("containers_mean", containers, "count", subs);
        result.set("request_failed_pct", failed, "%", subs);
        return result;
    }

    // Per-layer metrics from the traced episodes' spans and counters.
    std::vector<double> plainWall;
    std::vector<double> tracedWall;
    for (const Episode &ep : plain)
        plainWall.push_back(ep.wallS);
    for (const Episode &ep : traced)
        tracedWall.push_back(ep.wallS);
    result.set("trace.overhead_s",
               median(tracedWall).value - median(plainWall).value, "s",
               tracedWall.size() + plainWall.size());

    // Layer counters are summed over the traced episodes.
    FaultStats f;
    std::uint64_t events = 0;
    std::uint64_t above = 0;
    std::uint64_t below = 0;
    std::uint64_t scrapes = 0;
    std::uint64_t degraded = 0;
    std::uint64_t adjustments = 0;
    std::vector<double> queryUs;
    for (const Episode &ep : traced) {
        f.firstAttempts += ep.faults.firstAttempts;
        f.callRetries += ep.faults.callRetries;
        f.hedgesLaunched += ep.faults.hedgesLaunched;
        f.callsFailed += ep.faults.callsFailed;
        f.callTimeouts += ep.faults.callTimeouts;
        f.containerCrashes += ep.faults.containerCrashes;
        events += ep.events;
        above += ep.queriesAbove;
        below += ep.queriesBelow;
        scrapes += ep.scrapes;
        degraded += ep.guard.suspectCycles + ep.guard.fallbackCycles;
        adjustments += ep.tunerAdjustments;
        queryUs.insert(queryUs.end(), ep.queryUsAbove.begin(),
                       ep.queryUsAbove.end());
        queryUs.insert(queryUs.end(), ep.queryUsBelow.begin(),
                       ep.queryUsBelow.end());
    }
    const std::size_t n = traced.size();
    auto count = [&](const char *name, std::uint64_t value) {
        result.set(name, static_cast<double>(value), "count", n);
    };
    count("sim.events", events);
    result.set("sim.ns_per_event",
               tracer.selfSeconds("sim.minute") * 1e9 /
                   static_cast<double>(events),
               "ns", n);
    // Self time: a minute step also runs the deferred minute callback,
    // whose core.cycle child span belongs to the controller.
    result.set("sim.minute_ms_p50",
               median(tracer.selfDurationsMs("sim.minute")), "ms");
    result.set("fault.retry_amplification", f.retryAmplification(), "ratio",
               n);
    count("fault.calls_failed", f.callsFailed);
    count("fault.timeouts", f.callTimeouts);
    count("fault.hedges", f.hedgesLaunched);
    count("fault.crashes", f.containerCrashes);

    result.set("profiling.sweep_s", fx->sweepS, "s");
    result.set("profiling.fit_ms", fx->fitMs, "ms");
    result.set("profiling.samples", static_cast<double>(fx->samples),
               "count");

    count("telemetry.queries", above + below);
    count("telemetry.queries_above_guard", above);
    count("telemetry.queries_below_guard", below);
    result.set("telemetry.query_us_p50", median(queryUs), "us");
    count("telemetry.scrapes", scrapes);
    count("telemetry.guard_degraded_cycles", degraded);
    count("tuning.adjustments", adjustments);

    const std::vector<double> cycle = concat(traced, &Episode::cycleMs);
    const std::vector<double> innerMs = concat(traced, &Episode::innerMs);
    std::vector<double> decorator;
    for (std::size_t i = 0; i < cycle.size(); ++i)
        decorator.push_back(cycle[i] - innerMs[i]);
    result.set("core.cycle_ms_p50", median(cycle), "ms");
    result.set("core.inner_ms_p50", median(innerMs), "ms");
    result.set("core.decorator_ms_p50", median(decorator), "ms");
    return result;
}

} // namespace perfbench
