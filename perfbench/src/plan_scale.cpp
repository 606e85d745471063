/**
 * @file
 * plan_scale: the planner and provisioning alone. A makeSynthTrace
 * population (2000 microservices, 200 services of 30-70) replays one
 * makeTraceRateSeries minute per decision; each decision is
 * ErmsController::plan followed by placeBatch of the scaleOutDeltas onto
 * a 5000-host fleet. No simulator and no telemetry run, so only the
 * scaling and provision layers can move these numbers. The loop is
 * single-threaded and its timings are process CPU time, see runPlanScale.
 *
 * With no simulator, the outcome metrics are model-evaluated: each plan
 * is scored against the *next* trace minute's rates with the planner's
 * own latency bands (what a one-minute control lag costs), see README.
 */

#include <algorithm>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "core/erms.hpp"
#include "provision/batch_placement.hpp"
#include "provision/interference_aware.hpp"
#include "scaling/solver.hpp"
#include "workload/synth_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace erms;

namespace {

constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kMaxSetupReps = 40;
/** Untraced runs time each decision as its fastest of this many passes;
 *  a fixed count, so the reported time does not depend on host speed.
 *  Traced runs alternate untraced and traced passes. */
constexpr int kPasses = 3;
constexpr int kTracedPasses = 4;
/** Decisions per host-speed sample. */
constexpr int kReferenceEvery = 4;
/** §6.5.2 budgets: latency-target computation, and provisioning of
 *  <= 1000 containers onto 5000 hosts. */
constexpr double kLtcBudgetMs = 15.0;
constexpr double kProvisionBudgetMs = 200.0;

struct Fixture
{
    SynthTrace trace;
    /** series[s][m]: rate of service s in trace minute m. */
    std::vector<std::vector<double>> series;
    std::vector<ServiceSpec> services;
    std::vector<HostView> hosts;
    double traceMs = 0.0;
};

std::unique_ptr<Fixture>
prepare(const PlanInputs &in, Tracer &tracer)
{
    const PlanKnobs &k = in.knobs;
    auto fx = std::make_unique<Fixture>();
    const SynthTraceConfig config = planTraceConfig(in);
    const auto traceStart = Clock::now();
    {
        Tracer::Scope span(tracer, "workload.trace", 0);
        fx->trace = makeSynthTrace(config);
    }
    fx->traceMs = secondsSince(traceStart) * 1e3;
    // One extra minute: the last decision is scored against it.
    fx->series = makeTraceRateSeries(fx->trace, k.minutes + 1,
                                     k.troughFraction, k.burstProbability,
                                     in.rateSeed);
    for (std::size_t s = 0; s < fx->trace.graphs.size(); ++s) {
        ServiceSpec spec;
        spec.id = fx->trace.graphs[s].service();
        spec.graph = &fx->trace.graphs[s];
        spec.slaMs = fx->trace.slaMs[s];
        fx->services.push_back(spec);
    }
    Rng rng(in.hostSeed);
    fx->hosts.resize(static_cast<std::size_t>(k.hostCount));
    for (std::size_t h = 0; h < fx->hosts.size(); ++h) {
        HostView &host = fx->hosts[h];
        host.id = static_cast<HostId>(h);
        host.cpuAllocatedCores = rng.uniform(0.0, 8.0);
        host.memAllocatedMb = rng.uniform(0.0, 16000.0);
        host.backgroundCpuUtil = rng.uniform(0.0, 0.5);
        host.backgroundMemUtil = rng.uniform(0.0, 0.5);
    }
    return fx;
}

/** Decision timings are process CPU time, see runPlanScale. */
struct Pass
{
    std::vector<double> planMs;
    std::vector<double> placeMs;
    std::vector<double> decideMs;
    /** The same decisions on the wall clock. */
    std::vector<double> decideWallMs;
    /** Per decision, the latest fastestReferenceMs sample, taken before
     *  every kReferenceEvery-th decision. */
    std::vector<double> referenceMs;
    double firstRoundMs = 0.0;
    std::size_t firstRoundContainers = 0;
    std::size_t placed = 0;
    std::size_t allocations = 0;
    int infeasible = 0;
    /** Decisions where some microservice in use got no container. */
    int uncovered = 0;
    double containersMean = 0.0;
    double violationPct = 0.0;
    double failedPct = 0.0;
    std::uint64_t fingerprint = 0;
};

/**
 * Score a plan made for minute m against minute m+1's rates: each
 * microservice's load scales with its service's rate ratio, latency
 * follows the band the planner sized it with, and the end-to-end latency
 * composes over the graph. A load past the solver's own backstop
 * (cutoffBackstopFactor x the model cutoff) counts as failed.
 */
void
scorePlan(const Fixture &fx, const PlanKnobs &k, const GlobalPlan &plan,
          int minute, double &requests, double &violated, double &failed)
{
    const Interference itf{k.itfCpu, k.itfMem};
    const double backstop = SolverOptions{}.cutoffBackstopFactor;
    std::unordered_map<MicroserviceId, double> latency;
    for (const ServiceAllocation &alloc : plan.services) {
        const std::size_t s = static_cast<std::size_t>(alloc.service);
        const double planned =
            fx.series[s][static_cast<std::size_t>(minute)] * k.headroom;
        const double next = fx.series[s][static_cast<std::size_t>(minute) + 1];
        const double ratio = next / planned;
        bool overloaded = false;
        latency.clear();
        for (const auto &[ms, a] : alloc.perMicroservice) {
            const auto deployed = plan.containers.find(ms);
            const int n = deployed == plan.containers.end()
                              ? a.containers
                              : deployed->second;
            const double x = a.workload * ratio / std::max(n, 1);
            latency[ms] = a.band.evaluate(x);
            overloaded |= x > backstop * fx.trace.catalog.model(ms).cutoff(itf);
        }
        for (MicroserviceId ms : fx.services[s].graph->nodes())
            latency.try_emplace(ms, 0.0);
        const double e2e = endToEndLatency(*fx.services[s].graph, latency);
        requests += next;
        if (overloaded || e2e > fx.services[s].slaMs)
            violated += next;
        if (overloaded)
            failed += next;
    }
}

/** Replay the trace's decisions in order. The reference kernel runs
 *  between decisions, outside their timing. */
Pass
runPass(const Fixture &fx, const PlanInputs &in, Tracer &tracer,
        std::int64_t pass_id)
{
    const PlanKnobs &k = in.knobs;
    const Interference itf{k.itfCpu, k.itfMem};
    const int root = tracer.begin("pass", pass_id);
    const ErmsController erms(fx.trace.catalog, ErmsConfig{});
    ProvisionConfig provision;
    provision.popGroupSize = static_cast<std::size_t>(k.popGroupSize);
    InterferenceAwarePlacement policy(provision);
    std::vector<ServiceSpec> services = fx.services;
    std::vector<HostView> hosts = fx.hosts;
    std::unordered_map<MicroserviceId, int> deployed;

    Pass pass;
    Fingerprint fp;
    double containers = 0.0;
    double requests = 0.0;
    double violated = 0.0;
    double failed = 0.0;
    for (int m = 0; m < k.minutes; ++m) {
        for (std::size_t s = 0; s < services.size(); ++s)
            services[s].workload =
                fx.series[s][static_cast<std::size_t>(m)] * k.headroom;
        if (m % kReferenceEvery == 0) {
            Tracer::Scope span(tracer, "host.reference", m);
            pass.referenceMs.push_back(fastestReferenceMs(kReferenceRuns));
        } else {
            pass.referenceMs.push_back(pass.referenceMs.back());
        }
        const int decision = tracer.begin("decision", m);
        const auto start = Clock::now();
        const double cpuStart = processCpuSeconds();
        GlobalPlan plan;
        {
            Tracer::Scope span(tracer, "scaling.plan", m);
            plan = erms.plan(services, itf);
        }
        const double cpuPlanned = processCpuSeconds();
        BatchPlacementResult placed;
        {
            Tracer::Scope span(tracer, "provision.place", m);
            placed = placeBatch(fx.trace.catalog, std::move(hosts),
                                scaleOutDeltas(plan, deployed), policy);
        }
        const double cpuDone = processCpuSeconds();
        pass.decideWallMs.push_back(secondsSince(start) * 1e3);
        tracer.end(decision);

        pass.planMs.push_back((cpuPlanned - cpuStart) * 1e3);
        pass.placeMs.push_back((cpuDone - cpuPlanned) * 1e3);
        pass.decideMs.push_back((cpuDone - cpuStart) * 1e3);
        if (m == 0) {
            pass.firstRoundMs = pass.placeMs.back();
            pass.firstRoundContainers = placed.placements.size();
        }
        hosts = std::move(placed.hostsAfter);
        pass.placed += placed.placements.size();
        deployed = plan.containers;

        pass.infeasible += plan.feasible ? 0 : 1;
        bool covered = true;
        for (const ServiceSpec &svc : services)
            for (MicroserviceId ms : svc.graph->nodes()) {
                const auto it = plan.containers.find(ms);
                covered &= it != plan.containers.end() && it->second >= 1;
            }
        pass.uncovered += covered ? 0 : 1;
        for (const ServiceAllocation &alloc : plan.services)
            pass.allocations += alloc.perMicroservice.size();
        containers += plan.totalContainers;
        fp.add(static_cast<std::uint64_t>(plan.totalContainers));
        fp.add(static_cast<std::uint64_t>(placed.placements.size()));
        scorePlan(fx, k, plan, m, requests, violated, failed);
    }
    tracer.end(root);
    pass.containersMean = containers / k.minutes;
    pass.violationPct = 100.0 * violated / requests;
    pass.failedPct = 100.0 * failed / requests;
    fp.add(pass.containersMean);
    fp.add(pass.violationPct);
    fp.add(pass.failedPct);
    fp.add(static_cast<std::uint64_t>(pass.infeasible));
    pass.fingerprint = fp.value();
    return pass;
}

/** Median CPU time of LatencyTargetSolver::solve alone on one random
 *  graph of `nodes` microservices. */
Percentile
timeLtc(int nodes, std::uint64_t seed, int reps, Tracer &tracer)
{
    SynthTraceConfig config;
    config.microserviceCount = nodes;
    config.serviceCount = 1;
    config.minGraphSize = nodes;
    config.maxGraphSize = nodes;
    config.seed = seed;
    const SynthTrace trace = makeSynthTrace(config);
    LatencyTargetSolver solver(trace.catalog, ClusterCapacity{});
    ServiceScalingRequest request;
    request.graph = &trace.graphs.front();
    request.workload = 10000.0;
    const Interference itf{0.3, 0.3};
    // Time a feasible solve: loosen the SLA until the graph fits it, so
    // an early infeasibility exit is never what gets measured.
    request.slaMs = 50.0 * trace.graphs.front().depth();
    for (int tries = 0; !solver.solve(request, itf).feasible; ++tries) {
        if (tries == 8)
            throw std::runtime_error("no feasible SLA for the LTC graph of " +
                                     std::to_string(nodes));
        request.slaMs *= 2.0;
    }
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const double start = processCpuSeconds();
        {
            Tracer::Scope span(tracer, "scaling.ltc", nodes);
            const ServiceAllocation alloc = solver.solve(request, itf);
            if (!alloc.feasible)
                throw std::runtime_error("LTC solve turned infeasible");
        }
        ms.push_back((processCpuSeconds() - start) * 1e3);
    }
    return median(ms);
}

} // namespace

SynthTraceConfig
planTraceConfig(const PlanInputs &in)
{
    SynthTraceConfig config;
    config.microserviceCount = in.knobs.microservices;
    config.serviceCount = in.knobs.services;
    config.minGraphSize = in.knobs.minGraphSize;
    config.maxGraphSize = in.knobs.maxGraphSize;
    config.slaRelativeToKnee = true;
    config.seed = in.knobs.traceSeed;
    return config;
}

PlanInputs
planInputs(std::uint64_t seed)
{
    PlanInputs in;
    in.rateSeed = deriveRunSeed(seed, 2);
    in.hostSeed = deriveRunSeed(seed, 3);
    return in;
}

RunResult
runPlanScale(const RunArgs &args, Tracer &tracer)
{
    const PlanInputs in = planInputs(args.seed);
    const PlanKnobs &k = in.knobs;
    RunResult result;
    Tracer untraced(false);

    std::unique_ptr<Fixture> fx;
    const std::vector<double> setupS = repeatTimed(
        [&](int rep) { fx = prepare(in, rep == 0 ? tracer : untraced); },
        kSetupReps, kSetupSeconds, kMaxSetupReps);
    const double traceMs = fx->traceMs;

    std::vector<Pass> plain;
    std::vector<Pass> traced;
    for (int i = 0; i < (args.trace ? kTracedPasses : kPasses); ++i) {
        const bool traceThis = args.trace && i % 2 == 1;
        Pass pass = runPass(*fx, in, traceThis ? tracer : untraced, i);
        result.attempted += pass.decideMs.size();
        (traceThis ? traced : plain).push_back(std::move(pass));
    }

    const Pass &first = plain.front();
    bool same = true;
    for (const auto *set : {&plain, &traced})
        for (const Pass &p : *set)
            same &= p.fingerprint == first.fingerprint;
    result.check(args.trace ? "fingerprint identical across untraced and "
                              "traced passes"
                            : "fingerprint identical across passes",
                 same);
    result.check("every plan feasible", first.infeasible == 0);
    result.check("every microservice in use has >= 1 container",
                 first.uncovered == 0);
    result.failed = static_cast<std::uint64_t>(first.infeasible);
    result.facts["fingerprint"] = std::to_string(first.fingerprint);
    result.facts["passes"] = std::to_string(plain.size() + traced.size());
    result.facts["decisions_per_pass"] = std::to_string(k.minutes);
    result.facts["hosts"] = std::to_string(k.hostCount);

    if (!args.trace) {
        // The loop is single-threaded, so its process CPU time is its wall
        // time minus the time the vCPU ran other processes or was stolen
        // by the hypervisor. Contention from other tenants still slows the
        // CPU itself, for seconds to minutes at a time, so each decision
        // time is host-scaled by the reference sample taken just before
        // it (README), and each decision is reported as its fastest
        // scaled pass, since passes replay identical inputs. The raw CPU
        // and wall-clock figures are kept as facts.
        std::vector<double> decide(first.decideMs.size(),
                                   std::numeric_limits<double>::infinity());
        std::vector<double> cpuMs = decide;
        std::vector<double> wallMs = decide;
        for (const Pass &p : plain)
            for (std::size_t m = 0; m < decide.size(); ++m) {
                decide[m] = std::min(decide[m],
                                     p.decideMs[m] *
                                         hostScale({p.referenceMs[m]}));
                cpuMs[m] = std::min(cpuMs[m], p.decideMs[m]);
                wallMs[m] = std::min(wallMs[m], p.decideWallMs[m]);
            }
        double busyS = 0.0;
        double cpuS = 0.0;
        double wallS = 0.0;
        for (std::size_t m = 0; m < decide.size(); ++m) {
            busyS += decide[m] / 1e3;
            cpuS += cpuMs[m] / 1e3;
            wallS += wallMs[m] / 1e3;
        }
        const double scale = busyS / cpuS;
        result.facts["host_scale"] = std::to_string(scale);
        result.facts["decision_cpu_s_per_sim_min"] =
            std::to_string(cpuS / k.minutes);
        result.facts["decision_wall_clock_s_per_sim_min"] =
            std::to_string(wallS / k.minutes);
        const std::size_t decisions = decide.size();
        result.facts["unscaled_setup_s"] =
            std::to_string(median(setupS).value);
        result.set("setup_s", median(setupS).value * scale, "s",
                   setupS.size());
        result.set("wall_s_per_sim_min", busyS / k.minutes, "s", decisions);
        result.set("events_per_s",
                   static_cast<double>(first.allocations) / busyS, "1/s",
                   decisions);
        result.set("decide_ms_p50", median(decide), "ms");
        result.set("decide_ms_p90", percentile(decide, 0.9), "ms");
        result.set("peak_rss_mb", procStatusMb("VmHWM:"), "MB");
        result.set("sla_violation_pct", first.violationPct, "%",
                   static_cast<std::size_t>(k.minutes));
        result.set("containers_mean", first.containersMean, "count",
                   static_cast<std::size_t>(k.minutes));
        result.set("request_failed_pct", first.failedPct, "%",
                   static_cast<std::size_t>(k.minutes));
        return result;
    }

    std::vector<double> plainBusy;
    std::vector<double> tracedBusy;
    for (const Pass &p : plain) {
        double s = 0.0;
        for (double ms : p.decideMs)
            s += ms / 1e3;
        plainBusy.push_back(s);
    }
    for (const Pass &p : traced) {
        double s = 0.0;
        for (double ms : p.decideMs)
            s += ms / 1e3;
        tracedBusy.push_back(s);
    }
    result.set("trace.overhead_s",
               median(tracedBusy).value - median(plainBusy).value, "s",
               tracedBusy.size() + plainBusy.size());

    const Pass &t = traced.front();
    result.set("scaling.plan_ms_p50", median(t.planMs), "ms");
    result.set("scaling.plans_infeasible", static_cast<double>(t.infeasible),
               "count");
    result.set("provision.place_ms_p50", median(t.placeMs), "ms");
    result.set("provision.first_round_ms", t.firstRoundMs, "ms");
    result.set("provision.first_round_containers",
               static_cast<double>(t.firstRoundContainers), "count");
    result.set("provision.containers_placed", static_cast<double>(t.placed),
               "count");
    result.set("workload.trace_ms", traceMs, "ms");

    // §6.5.2 budget table: each ratio is measured / paper budget.
    const std::vector<std::pair<int, int>> ltcSizes{{36, 40}, {500, 10},
                                                   {2000, 5}};
    for (const auto &[nodes, reps] : ltcSizes) {
        const Percentile ltc =
            timeLtc(nodes, deriveRunSeed(args.seed, 10 + nodes), reps, tracer);
        const std::string n = std::to_string(nodes);
        result.set("scaling.ltc_ms." + n, ltc, "ms");
        result.set("budget.ltc_" + n + "_vs_15ms", ltc.value / kLtcBudgetMs,
                   "ratio", ltc.samples);
    }
    result.set("budget.first_round_vs_200ms",
               t.firstRoundMs / kProvisionBudgetMs, "ratio");
    return result;
}

} // namespace perfbench
