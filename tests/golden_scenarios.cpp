#include "golden_scenarios.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "apps/applications.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/profiling_pipeline.hpp"
#include "fault/campaign.hpp"
#include "fault/telemetry_fault.hpp"
#include "market/market.hpp"
#include "scaling/multiplexing.hpp"
#include "shard/merge.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"
#include "workload/generators.hpp"
#include "workload/synth_trace.hpp"

namespace erms::golden {
namespace {

using bench::makeServices;
using bench::runSweep;
using bench::validatePlanFaulty;

/** Hexfloat rendering: bit-exact, so one ULP of drift changes the
 *  golden file. */
std::string
hex(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
hexList(const std::vector<double> &values)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? " " : "") << hex(values[i]);
    return out.str();
}

// ---------------------------------------------------------------------
// fig12 (trimmed): offline profiling -> plan -> simulator validation
// ---------------------------------------------------------------------

std::string
fig12Impl()
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);

    // Trimmed profiling sweep: 2 load levels x 2 interference levels,
    // one minute per cell. Covers the profiling layer without the full
    // grid's runtime.
    std::vector<const DependencyGraph *> graphs;
    for (const auto &graph : app.graphs)
        graphs.push_back(&graph);
    ProfilingSweepConfig sweep;
    sweep.loadFractions = {0.5, 1.0};
    sweep.interferenceLevels = {{0.10, 0.10}, {0.45, 0.35}};
    sweep.minutesPerCell = 1;
    sweep.ratePerService = 6000.0;
    sweep.seed = 11;
    sweep.runner = bench::runnerOptionsFromEnv();
    fitAndAttachModels(catalog,
                       collectProfilingSamples(catalog, graphs, sweep));

    const auto services = makeServices(app, 240.0, 12000.0);
    const Interference itf{0.25, 0.2};

    std::ostringstream out;
    out << "golden fig12 (trimmed): motivation-shared, profiled, "
           "SLA 240 ms, 12000 req/min, seed 42\n";
    out << "policy containers p95_ms violation_rate slo_violation_rate "
           "requests_completed\n";
    for (SharingPolicy policy :
         {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
          SharingPolicy::NonSharing}) {
        ErmsConfig config;
        config.policy = policy;
        ErmsController controller(catalog, config);
        const GlobalPlan plan = controller.plan(services, itf);
        int containers = 0;
        for (const auto &[ms, count] : plan.containers)
            containers += count;
        const auto result =
            bench::validatePlan(catalog, services, plan, itf, 3, 42);
        out << bench::policyName(policy) << ' ' << containers << ' '
            << hexList(result.p95Ms) << ' '
            << hexList(result.violationRate) << ' '
            << hexList(result.sloViolationRate) << ' '
            << result.requestsCompleted << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------
// fig13 (trimmed): closed-loop dynamic control, oracle and scraped
// ---------------------------------------------------------------------

struct DynamicGoldenRow
{
    std::vector<int> containers;
    std::vector<double> p95;
};

DynamicGoldenRow
runDynamicGolden(const MicroserviceCatalog &catalog, const Application &app,
                 const std::vector<double> &series, double sla,
                 const std::function<void(Simulation &, int)> &controller,
                 const GlobalPlan &initial,
                 telemetry::SimMonitor *monitor)
{
    SimConfig config;
    config.horizonMinutes = static_cast<int>(series.size());
    config.warmupMinutes = 1;
    config.seed = 5;
    Simulation sim(catalog, config);
    if (monitor != nullptr)
        sim.setMonitor(monitor);
    sim.setBackgroundLoadAll(0.25, 0.2);
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = sla;
        svc.rateSeries = series;
        sim.addService(svc);
    }
    sim.applyPlan(initial);

    DynamicGoldenRow row;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        controller(s, minute);
        int total = 0;
        for (const auto &graph : app.graphs)
            for (MicroserviceId id : graph.nodes())
                total += s.containerCount(id);
        row.containers.push_back(total);
        double worst = 0.0;
        for (const auto &graph : app.graphs) {
            auto it = s.metrics().endToEndByMinute.find(graph.service());
            if (it == s.metrics().endToEndByMinute.end())
                continue;
            worst = std::max(
                worst, it->second.window(static_cast<std::uint64_t>(minute))
                           .p95());
        }
        row.p95.push_back(worst);
    });
    sim.run();
    return row;
}

std::string
fig13Impl()
{
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    // Bootstrap analytic models (attached by the factory) keep the
    // scenario fast; the profiling layer is pinned by fig12.
    const double sla = 200.0;
    constexpr int kMinutes = 6;
    const auto series =
        alibabaLikeSeries(kMinutes, 4000.0, 9000.0, 12.0, 0.05, 0.0, 1.0,
                          1, 9);

    const auto services = makeServices(app, sla, series.front() * 1.3);
    ErmsConfig erms_config;
    erms_config.workloadHeadroom = 1.2;
    ErmsController controller(catalog, erms_config);
    const GlobalPlan initial =
        controller.plan(services, Interference{0.25, 0.2});

    std::ostringstream out;
    out << "golden fig13 (trimmed): hotel-reservation, SLA 200 ms, "
        << kMinutes << " min dynamic series, seed 5\n";
    out << "scheme minute containers worst_p95_ms\n";

    const auto emit = [&out](const std::string &name,
                             const DynamicGoldenRow &row) {
        for (std::size_t m = 0; m < row.containers.size(); ++m)
            out << name << ' ' << m << ' ' << row.containers[m] << ' '
                << hex(row.p95[m]) << '\n';
    };

    emit("erms-oracle",
         runDynamicGolden(catalog, app, series, sla,
                          controller.makeAutoscaler(services), initial,
                          nullptr));
    {
        // Scraped-telemetry variant: pins monitor scrapes, span
        // sampling and the view's delta computations end to end.
        telemetry::SimMonitor monitor;
        auto view =
            std::make_shared<telemetry::ScrapedTelemetryView>(monitor);
        emit("erms-scraped",
             runDynamicGolden(catalog, app, series, sla,
                              controller.makeAutoscaler(services, view),
                              initial, &monitor));
    }
    emit("firm",
         runDynamicGolden(catalog, app, series, sla,
                          makeFirmReactiveController(catalog, services),
                          initial, nullptr));
    return out.str();
}

// ---------------------------------------------------------------------
// Fault sweep (trimmed), dispatched through ParallelRunner
// ---------------------------------------------------------------------

std::string
faultSweepImpl()
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    const auto services = makeServices(app, 240.0, 12000.0);
    const Interference itf{0.2, 0.2};
    ErmsController controller(catalog, ErmsConfig{});
    const GlobalPlan plan = controller.plan(services, itf);

    struct Case
    {
        double crashesPerMinute;
        double slowdownsPerMinute;
        std::uint64_t seed;
    };
    const std::vector<Case> cases{
        {2.0, 0.0, 42},
        {2.0, 0.0, 43},
        {0.0, 1.5, 42},
        {3.0, 1.0, 44},
    };

    std::vector<std::function<bench::ValidationResult()>> tasks;
    for (const Case &c : cases) {
        tasks.push_back([&, c] {
            FaultConfig fault;
            fault.seed = 0xfa17ULL + c.seed;
            fault.crashesPerMinute = c.crashesPerMinute;
            fault.slowdownsPerMinute = c.slowdownsPerMinute;
            ResilienceConfig resilience;
            resilience.maxRetries = 2;
            resilience.timeoutMs = 400.0;
            return validatePlanFaulty(catalog, services, plan, itf, fault,
                                      resilience, 3, c.seed);
        });
    }
    // Through ParallelRunner: the table must come out identical with
    // ERMS_RUNNER_THREADS=1 and with the hardware default (pinned by
    // scripts/check.sh running the golden suite under both).
    const auto results = runSweep("golden-fault", std::move(tasks));

    std::ostringstream out;
    out << "golden fault sweep (trimmed): motivation-shared, Erms plan, "
           "retries=2, timeout 400 ms\n";
    out << "crashes_per_min slowdowns_per_min seed crashes restarts "
           "slowdown_windows retries timeouts failed "
           "slo_violation_rate\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const auto &r = results[i];
        out << hex(c.crashesPerMinute) << ' ' << hex(c.slowdownsPerMinute)
            << ' ' << c.seed << ' ' << r.faults.containerCrashes << ' '
            << r.faults.containerRestarts << ' '
            << r.faults.slowdownWindows << ' ' << r.faults.callRetries
            << ' ' << r.faults.callTimeouts << ' ' << r.requestsFailed
            << ' ' << hexList(r.sloViolationRate) << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Tenant market (trimmed): capped closed-loop control, both allocators
// ---------------------------------------------------------------------

std::string
marketImpl()
{
    MicroserviceCatalog catalog;
    std::vector<Application> apps;
    apps.push_back(makeMotivationShared(catalog, 0));
    apps.push_back(makeMotivationShared(catalog, 2));

    constexpr int kMinutes = 5;
    constexpr double kSla = 240.0;
    constexpr market::Units kCapacity = 16;
    // Counter-phased diurnal demand: tenant 0 peaks while tenant 1
    // troughs, so caps bind alternately and credits change hands.
    std::vector<std::vector<double>> series;
    series.push_back(phaseShiftedDiurnalSeries(
        kMinutes, 4000.0, 12000.0, kMinutes, 0.0, 0.05, 21));
    series.push_back(phaseShiftedDiurnalSeries(
        kMinutes, 4000.0, 12000.0, kMinutes, kMinutes / 2.0, 0.05, 22));

    std::vector<ServiceSpec> services;
    std::vector<MarketTenantServices> tenants;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t i = 0; i < apps[a].graphs.size(); ++i) {
            ServiceSpec svc;
            svc.id = apps[a].graphs[i].service();
            svc.name = apps[a].serviceNames[i];
            svc.graph = &apps[a].graphs[i];
            svc.slaMs = kSla;
            svc.workload = series[a].front() * 1.3;
            services.push_back(svc);
        }
        MarketTenantServices tenant;
        tenant.tenant = static_cast<market::TenantId>(a);
        for (const auto &graph : apps[a].graphs)
            for (MicroserviceId id : graph.nodes())
                if (std::find(tenant.microservices.begin(),
                              tenant.microservices.end(),
                              id) == tenant.microservices.end())
                    tenant.microservices.push_back(id);
        tenants.push_back(std::move(tenant));
    }

    ErmsController controller(catalog, {});
    const GlobalPlan initial =
        controller.plan(services, Interference{0.25, 0.2});

    std::ostringstream out;
    out << "golden market (trimmed): 2x motivation-shared tenants "
           "(honest, greedy), capacity "
        << kCapacity << " units, SLA 240 ms, " << kMinutes
        << " min counter-phased series, seed 5\n";
    out << "scheme minute t0_containers t1_containers t0_cap t1_cap "
           "worst_p95_ms\n";

    std::ostringstream accounts;
    for (int scheme = 0; scheme < 2; ++scheme) {
        const std::string name = scheme == 0 ? "max-min" : "karma";
        std::unique_ptr<market::MarketAllocator> allocator;
        if (scheme == 0)
            allocator = std::make_unique<market::MaxMinAllocator>();
        else
            allocator = std::make_unique<market::KarmaAllocator>(
                tenants.size(), market::KarmaConfig{.initialCredits = 4});
        std::vector<std::unique_ptr<market::TenantPolicy>> policies;
        policies.push_back(market::makeHonestPolicy());
        policies.push_back(market::makeGreedyPolicy());
        auto tenant_market = std::make_shared<market::TenantMarket>(
            kCapacity, std::move(allocator), std::move(policies));

        SimConfig config;
        config.horizonMinutes = kMinutes;
        config.warmupMinutes = 1;
        config.seed = 5;
        Simulation sim(catalog, config);
        sim.setBackgroundLoadAll(0.25, 0.2);
        for (std::size_t s = 0; s < services.size(); ++s) {
            ServiceWorkload svc;
            svc.id = services[s].id;
            svc.graph = services[s].graph;
            svc.slaMs = kSla;
            svc.rateSeries = series[s / 2];
            sim.addService(svc);
        }
        sim.applyPlan(initial);

        auto wrapped = makeMarketController(
            controller.makeAutoscaler(services), tenant_market, tenants);
        sim.setMinuteCallback([&](Simulation &s, int minute) {
            wrapped(s, minute);
            out << name << ' ' << minute;
            for (const auto &tenant : tenants) {
                int total = 0;
                for (MicroserviceId id : tenant.microservices)
                    total += s.containerCount(id);
                out << ' ' << total;
            }
            for (const auto cap : tenant_market->lastEpoch().caps)
                out << ' ' << cap;
            double worst = 0.0;
            for (const ServiceSpec &svc : services) {
                auto it = s.metrics().endToEndByMinute.find(svc.id);
                if (it == s.metrics().endToEndByMinute.end())
                    continue;
                worst = std::max(
                    worst,
                    it->second.window(static_cast<std::uint64_t>(minute))
                        .p95());
            }
            out << ' ' << hex(worst) << '\n';
        });
        sim.run();

        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const auto &account = tenant_market->accounts()[t];
            accounts << name << " tenant " << t << " allocated "
                     << account.allocatedIntegral << " useful "
                     << account.usefulIntegral << " true "
                     << account.trueIntegral << " declared "
                     << account.declaredIntegral;
            if (tenant_market->ledger() != nullptr)
                accounts << " credits "
                         << tenant_market->ledger()->balance(
                                static_cast<market::TenantId>(t));
            accounts << '\n';
        }
    }
    out << accounts.str();
    return out.str();
}

// ---------------------------------------------------------------------
// chaos campaign (trimmed): correlated AZ events + series corruption
// ---------------------------------------------------------------------

std::string
chaosCampaignImpl()
{
    // The "med" battery arm (fault planes, corruption, seeds all from
    // makeCampaignArm, so the golden pins the battery's own schedule)
    // on a reduced population: the same shrink the campaign test suite
    // uses for fast in-suite runs.
    CampaignConfig config = makeCampaignArm("med", "erms", true);
    config.horizonMinutes = 6;
    config.hostCount = 10;
    config.trace.microserviceCount = 24;
    config.trace.serviceCount = 2;
    config.trace.workloadLow = 30000.0;
    config.trace.workloadHigh = 40000.0;

    const CampaignResult result =
        runCampaign(config, bench::runnerOptionsFromEnv());

    std::ostringstream out;
    out << "golden chaos campaign (trimmed): med/erms/guarded, "
           "6 minutes, 10 hosts, 24 microservices\n";
    out << "minute containers guard violation_pct worst_p95_ms\n";
    for (const CampaignMinute &row : result.minutes) {
        const char *guard =
            row.guardMode < 0
                ? "naive"
                : telemetry::guardModeName(
                      static_cast<telemetry::GuardMode>(row.guardMode));
        out << row.minute << ' ' << row.containers << ' ' << guard << ' '
            << hex(row.violationPct) << ' ' << hex(row.worstP95Ms)
            << '\n';
    }
    out << "summary violation_pct " << hex(result.violationPct)
        << " worst_p95_ms " << hex(result.worstP95Ms)
        << " container_minutes " << hex(result.containerMinutes) << '\n';
    out << "guard fallback_cycles " << result.guard.fallbackCycles
        << " stale_cycles " << result.guard.staleCycles
        << " substituted_last_good " << result.guard.substitutedLastGood
        << '\n';
    out << "perturbed_scrapes " << result.perturbedHistory.size() << '\n';
    std::size_t series = 0;
    for (const auto &snap : result.perturbedHistory)
        series += snap.size();
    out << "perturbed_series_total " << series << '\n';
    return out.str();
}


// ---------------------------------------------------------------------
// planner: latency targets and multiplexing at trace-scale sharing
// ---------------------------------------------------------------------

/** FNV-1a: one 64-bit digest pins every row of a plan on one line. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** One line per service, then one row per microservice in id order:
 *  target, workload, fractional and whole containers, interval, band,
 *  per-container demand. The service line carries totalResource(),
 *  which sums in the allocation map's iteration order. */
std::string
allocationRows(const ServiceAllocation &alloc)
{
    std::vector<MicroserviceId> ids;
    for (const auto &[id, ms] : alloc.perMicroservice)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::ostringstream out;
    out << "service " << alloc.service << ' '
        << (alloc.feasible ? "feasible" : "infeasible") << ' '
        << alloc.totalContainers() << ' ' << hex(alloc.totalResource())
        << " reason=" << alloc.infeasibleReason << '\n';
    for (MicroserviceId id : ids) {
        const MicroserviceAllocation &ms = alloc.perMicroservice.at(id);
        out << ' ' << id << ' ' << hex(ms.latencyTargetMs) << ' '
            << hex(ms.workload) << ' ' << hex(ms.containersFractional)
            << ' ' << ms.containers << ' '
            << (ms.intervalUsed == Interval::AboveCutoff ? 2 : 1) << ' '
            << hex(ms.band.a) << ' ' << hex(ms.band.b) << ' '
            << hex(ms.resourceDemand) << '\n';
    }
    return out.str();
}

/** Every row of a plan: service allocations in submission order, then
 *  deployed containers (id:count, 16 a line) and priority orders in id
 *  order. */
std::string
planRows(const GlobalPlan &plan)
{
    std::ostringstream out;
    for (const ServiceAllocation &alloc : plan.services)
        out << allocationRows(alloc);
    std::vector<std::pair<MicroserviceId, int>> containers(
        plan.containers.begin(), plan.containers.end());
    std::sort(containers.begin(), containers.end());
    for (std::size_t i = 0; i < containers.size(); ++i) {
        out << (i % 16 == 0 ? "containers" : "") << ' '
            << containers[i].first << ':' << containers[i].second
            << (i % 16 == 15 || i + 1 == containers.size() ? "\n" : "");
    }
    std::vector<MicroserviceId> shared;
    for (const auto &[id, order] : plan.priorityOrder)
        shared.push_back(id);
    std::sort(shared.begin(), shared.end());
    for (MicroserviceId id : shared) {
        out << "priority " << id << ':';
        for (ServiceId svc : plan.priorityOrder.at(id))
            out << ' ' << svc;
        out << '\n';
    }
    return out.str();
}

/** One summary line per plan: totals (the planner's own
 *  totalResource sums in container-map order) plus the rows' digest. */
std::string
planSummary(const std::string &label, const GlobalPlan &plan)
{
    int infeasible = 0;
    for (const ServiceAllocation &alloc : plan.services)
        infeasible += alloc.feasible ? 0 : 1;
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a(planRows(plan))));
    std::ostringstream out;
    out << label << " feasible=" << plan.feasible
        << " infeasible_services=" << infeasible
        << " total_containers=" << plan.totalContainers
        << " total_resource=" << hex(plan.totalResource)
        << " rows=" << digest << " reason=" << plan.infeasibleReason
        << '\n';
    return out.str();
}

std::string
plannerImpl()
{
    // Alibaba-like sharing: ~600 microservices over 55 services of
    // 20-70, SLAs drawn against each graph's own knee latency.
    SynthTraceConfig config;
    config.microserviceCount = 600;
    config.serviceCount = 55;
    config.minGraphSize = 20;
    config.maxGraphSize = 70;
    config.slaRelativeToKnee = true;
    config.seed = 61;
    const SynthTrace trace = makeSynthTrace(config);

    const auto servicesAt = [&](double sla_scale) {
        std::vector<ServiceSpec> services;
        for (std::size_t s = 0; s < trace.graphs.size(); ++s) {
            ServiceSpec spec;
            spec.id = trace.graphs[s].service();
            spec.graph = &trace.graphs[s];
            spec.slaMs = trace.slaMs[s] * sla_scale;
            spec.workload = trace.workloads[s];
            services.push_back(spec);
        }
        return services;
    };

    std::ostringstream out;
    out << "golden planner: synth trace 600 microservices, 55 services of "
           "20-70, knee-relative SLAs, seed 61, shared microservices "
        << trace.sharedMicroserviceCount() << '\n';

    const std::vector<Interference> points{{0.2, 0.1}, {0.5, 0.4}};
    const MultiplexingPlanner planner(trace.catalog, ClusterCapacity{});
    GlobalPlan pinned;
    for (std::size_t point = 0; point < points.size(); ++point) {
        const Interference &itf = points[point];
        for (double sla_scale : {1.0, 0.5, 0.05}) {
            for (SharingPolicy policy :
                 {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
                  SharingPolicy::NonSharing}) {
                GlobalPlan plan =
                    planner.plan(servicesAt(sla_scale), itf, policy);
                std::ostringstream label;
                label << "plan " << bench::policyName(policy) << " itf "
                      << hex(itf.cpuUtil) << ' ' << hex(itf.memUtil)
                      << " sla_scale " << sla_scale;
                out << planSummary(label.str(), plan);
                if (policy == SharingPolicy::Priority && sla_scale == 1.0 &&
                    point == 0)
                    pinned = std::move(plan);
            }
        }
    }

    // The paper's literal two-pass refinement (§5.3.1).
    SolverOptions two_pass;
    two_pass.maxRefinementPasses = 2;
    const MultiplexingPlanner literal(trace.catalog, ClusterCapacity{},
                                      two_pass);
    out << planSummary("plan priority two-pass itf 0.5/0.4 sla_scale 0.5",
                       literal.plan(servicesAt(0.5), points.back()));

    // A single solve with injected workloads, as Step 3 of the priority
    // planner does: every third microservice doubled.
    const DependencyGraph &graph = trace.graphs.front();
    std::vector<double> injected =
        graph.workloadsByIndex(trace.workloads.front());
    for (std::size_t i = 0; i < injected.size(); i += 3)
        injected[i] = 2.0 * injected[i];
    ServiceScalingRequest request;
    request.graph = &graph;
    request.slaMs = trace.slaMs.front();
    request.workload = trace.workloads.front();
    request.workloadOverride = &injected;
    const LatencyTargetSolver solver(trace.catalog, ClusterCapacity{});
    out << "solve workload-override service " << graph.service() << '\n'
        << allocationRows(solver.solve(request, points.front()));

    out << "rows of plan priority itf " << hex(points.front().cpuUtil)
        << ' ' << hex(points.front().memUtil) << " sla_scale 1\n"
        << planRows(pinned);
    return out.str();
}

// ---------------------------------------------------------------------
// telemetry: scrape histories, perturbed streams, shard merges, archive
// ---------------------------------------------------------------------

constexpr SimTime kSecondUs = 1000ULL * 1000ULL;

/** FNV-1a of `text` as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    return buf;
}

/** Digest of the JSON export of a scrape stream. */
std::string
scrapesDigest(const std::vector<telemetry::TelemetrySnapshot> &snaps)
{
    return digestOf(telemetry::toJson(snaps));
}

/** Hotel Reservation and Social Network on six hosts for four minutes,
 *  with crashes, stragglers, transient failures, retries, timeouts and
 *  hedges. The t=0 scrape runs before any arrival, so every service
 *  registers its series late; service 6 sends nothing before minute 2,
 *  so its series register two scrape generations later still. */
std::vector<telemetry::TelemetrySnapshot>
deathstarScrapes()
{
    MicroserviceCatalog catalog;
    const Application hotel = makeHotelReservation(catalog, 0);
    const Application social = makeSocialNetwork(catalog, 4);
    SimConfig config;
    config.hostCount = 6;
    config.horizonMinutes = 4;
    config.seed = 17;
    Simulation sim(catalog, config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);
    FaultConfig faults;
    faults.crashesPerMinute = 2.0;
    faults.slowdownsPerMinute = 1.0;
    faults.callFailureProbability = 0.01;
    sim.setFaultConfig(faults);
    ResilienceConfig resilience;
    resilience.maxRetries = 1;
    resilience.timeoutMs = 400.0;
    resilience.hedgeDelayMs = 150.0;
    sim.setResilienceConfig(resilience);
    sim.setBackgroundLoadAll(0.3, 0.2);
    for (const Application *app : {&hotel, &social}) {
        for (const DependencyGraph &graph : app->graphs) {
            ServiceWorkload svc;
            svc.id = graph.service();
            svc.graph = &graph;
            svc.slaMs = 200.0;
            svc.rateSeries = svc.id == 6
                                 ? std::vector<double>{0.0, 0.0, 240.0}
                                 : std::vector<double>{240.0};
            sim.addService(svc);
            for (MicroserviceId ms : graph.nodes())
                sim.setContainerCount(ms, 2);
        }
    }
    sim.run();
    return monitor.snapshots();
}

/** One synthetic scrape of a four-host cluster; service 2 first sends
 *  at scrape 4, so its series register late. */
void
scrapeSyntheticCluster(telemetry::SimMonitor &monitor, int scrape)
{
    for (int i = 0; i < 40 + 10 * scrape; ++i) {
        for (ServiceId service : {0u, 1u, 2u}) {
            if (service == 2 && scrape < 4)
                continue;
            monitor.onRequestArrival(service);
            monitor.onRequestComplete(service,
                                      8.0 + 9.0 * service + scrape + i % 7,
                                      i % 9 == 0, i % 3 == 0);
        }
        monitor.onMicroserviceLatency(3, 4.0 + scrape + i % 5, i % 3 == 0);
        if (i % 11 == 0)
            monitor.onRetry(3);
    }
    for (HostId host = 0; host < 4; ++host)
        monitor.recordHostUtil(host, 0.2 + 0.05 * host + 0.01 * scrape,
                               0.4 + 0.02 * host);
    monitor.recordDeployment(3, 4 + scrape % 3, scrape % 4, 2);
    monitor.recordFaultSchedule(3, 1);
    monitor.takeSnapshot(static_cast<SimTime>(scrape + 1) * 30 *
                         kSecondUs);
}

/** Every observability fault class at once: drops, 1-3-interval delays,
 *  blackouts, AZ windows, span loss, outliers, counter drops and clock
 *  jitter. */
TelemetryFaultConfig
everyTelemetryFault(std::uint64_t seed)
{
    TelemetryFaultConfig faults;
    faults.seed = deriveRunSeed(0x7e1e, seed);
    faults.scrapeDropProbability = 0.15;
    faults.scrapeDelayProbability = 0.3;
    faults.scrapeDelayMs = 30000.0 * (1.0 + static_cast<double>(seed % 3));
    faults.blackoutsPerMinute = 1.5;
    faults.blackoutDurationMs = 45000.0;
    faults.spanLossProbability = 0.4;
    faults.outlierProbability = 0.25;
    faults.counterDropProbability = 0.2;
    faults.clockJitterMs = 12000.0;
    faults.azEvents.seed = deriveRunSeed(0xa2e, seed);
    faults.azEvents.eventsPerMinute = 0.8;
    faults.azEvents.eventDurationMs = 60000.0;
    faults.azEvents.azCount = 2;
    faults.azEvents.scrapeDropProbability = 0.3;
    faults.azEvents.scrapeDelayProbability = 0.5;
    faults.azEvents.scrapeDelayMs = 60000.0;
    return faults;
}

/** One randomized observation batch per shard monitor, routed as the
 *  sharded simulator routes it: hosts shard-local, each service and
 *  microservice on its owner shard, and the label-free fault-schedule
 *  gauges on every shard (the series that collide in the merge). From
 *  generation 1 on, every shard's last service starts sending, so its
 *  series register late. */
void
recordShardObservations(Rng &rng, std::vector<telemetry::SimMonitor> &parts,
                        const shard::ShardPlan &plan, int generation)
{
    constexpr int kServicesPerShard = 3;
    for (int k = 0; k < plan.shardCount; ++k) {
        parts[k].recordFaultSchedule(rng.next() % 7, rng.next() % 5);
        for (int s = 0; s < kServicesPerShard; ++s) {
            if (s == kServicesPerShard - 1 && generation == 0)
                continue;
            const ServiceId svc =
                static_cast<ServiceId>(k * kServicesPerShard + s);
            const MicroserviceId ms = static_cast<MicroserviceId>(svc);
            const int arrivals = 1 + static_cast<int>(rng.next() % 40);
            for (int a = 0; a < arrivals; ++a) {
                parts[k].onRequestArrival(svc);
                const double latency = 1.0 + 80.0 * rng.uniform();
                const bool sampled = (rng.next() & 3) == 0;
                parts[k].onRequestComplete(svc, latency, latency > 40.0,
                                           sampled);
                parts[k].onMicroserviceLatency(ms, latency * 0.5, sampled);
            }
            parts[k].recordDeployment(ms, 2 + s, arrivals % 5, s);
        }
        for (int h = 0; h < plan.shards[k].hostCount; ++h)
            parts[k].recordHostUtil(static_cast<HostId>(h), rng.uniform(),
                                    rng.uniform());
    }
}

std::string
telemetryImpl()
{
    std::ostringstream out;
    out << "golden telemetry: FNV-1a digests of telemetry::toJson\n";

    // (a) A simulator-fed monitor history.
    const std::vector<telemetry::TelemetrySnapshot> scrapes =
        deathstarScrapes();
    out << "deathstar scrapes " << scrapes.size() << " series_first "
        << digestOf(telemetry::toJson({scrapes.front()})) << " digest "
        << scrapesDigest(scrapes) << '\n';

    // (b) Perturbed histories under every fault class, per corruption
    // mode, digested at every scrape generation (the view's cache must
    // answer each generation as the whole-stream reference would).
    std::vector<telemetry::TelemetrySnapshot> archived;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        for (const auto mode : {SeriesCorruptionConfig::Mode::None,
                                SeriesCorruptionConfig::Mode::Scaled,
                                SeriesCorruptionConfig::Mode::Frozen,
                                SeriesCorruptionConfig::Mode::Negated}) {
            SeriesCorruptionConfig corruption;
            corruption.mode = mode;
            corruption.service = static_cast<ServiceId>(seed % 3);
            corruption.scale = 0.4;
            telemetry::SimMonitor monitor;
            const FaultyTelemetryView view(monitor,
                                           everyTelemetryFault(seed), 4,
                                           10 * kMinuteUs, corruption);
            out << "faulty seed " << seed << " mode "
                << static_cast<int>(mode) << ':';
            for (int scrape = 0; scrape < 14; ++scrape) {
                scrapeSyntheticCluster(monitor, scrape);
                out << ' ' << scrapesDigest(view.perturbedHistory());
            }
            out << " visible " << view.perturbedHistory().size() << '\n';
            archived = view.perturbedHistory();
        }
    }

    // (c) Shard merges over K in {2, 3, 4}, three generations each.
    for (int shard_count : {2, 3, 4}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            shard::ShardPlan plan;
            plan.shardCount = shard_count;
            plan.shards.resize(shard_count);
            for (int k = 0; k < shard_count; ++k) {
                plan.shards[k].index = k;
                plan.shards[k].hostCount = 4 + k;
                plan.shards[k].hostOffset = k == 0
                                                ? 0
                                                : plan.shards[k - 1].hostOffset +
                                                      plan.shards[k - 1].hostCount;
            }
            std::vector<telemetry::SimMonitor> parts(shard_count);
            Rng rng(deriveRunSeed(0x3e76e, seed));
            std::vector<telemetry::TelemetrySnapshot> merged;
            for (int generation = 0; generation < 3; ++generation) {
                recordShardObservations(rng, parts, plan, generation);
                std::vector<const telemetry::TelemetrySnapshot *> snaps;
                for (telemetry::SimMonitor &part : parts) {
                    part.takeSnapshot(static_cast<SimTime>(generation) * 30 *
                                      kSecondUs);
                    snaps.push_back(&part.snapshots().back());
                }
                merged.push_back(shard::mergeTelemetrySnapshots(snaps, plan));
            }
            out << "merge K " << shard_count << " seed " << seed
                << " series " << merged.back().size() << " digest "
                << scrapesDigest(merged) << '\n';
        }
    }

    // (d) A campaign archive around the last perturbed history.
    CampaignResult result;
    result.minutes = {{0, 12, 1.5, 80.25, 0}, {1, 13, 0.0, 77.5, 2}};
    result.violationPct = 0.75;
    result.worstP95Ms = 80.25;
    result.containerMinutes = 25.0;
    result.perturbedHistory = archived;
    out << "archive digest "
        << digestOf(archiveCampaign(makeCampaignArm("med", "erms", true),
                                    result))
        << '\n';

    // One small scrape in full.
    telemetry::SimMonitor small;
    small.onRequestArrival(0);
    small.onRequestComplete(0, 12.5, false, true);
    small.onMicroserviceLatency(1, 3.25, true);
    small.recordHostUtil(0, 0.5, 0.25);
    small.recordDeployment(1, 2, 0, 1);
    small.takeSnapshot(30 * kSecondUs);
    out << telemetry::toJson(small.snapshots());
    return out.str();
}

} // namespace

std::string
fig12Golden()
{
    return fig12Impl();
}

std::string
fig13Golden()
{
    return fig13Impl();
}

std::string
faultSweepGolden()
{
    return faultSweepImpl();
}

std::string
marketGolden()
{
    return marketImpl();
}

std::string
chaosCampaignGolden()
{
    return chaosCampaignImpl();
}

std::string
plannerGolden()
{
    return plannerImpl();
}

std::string
telemetryGolden()
{
    return telemetryImpl();
}

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> kScenarios{
        {"fig12.txt", &fig12Golden},
        {"fig13.txt", &fig13Golden},
        {"fault_sweep.txt", &faultSweepGolden},
        {"market.txt", &marketGolden},
        {"chaos_campaign.txt", &chaosCampaignGolden},
        {"planner.txt", &plannerGolden},
        {"telemetry.txt", &telemetryGolden},
    };
    return kScenarios;
}

} // namespace erms::golden
