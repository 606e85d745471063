/**
 * @file
 * Fig. 13 reproduction: dynamic workload replay (Alibaba-like diurnal
 * series with bursts) under closed-loop autoscalers. Every scheme
 * re-plans each minute from observed arrival rates; Firm reacts only to
 * observed violations. Shapes to reproduce: all schemes track the
 * workload, Erms uses fewer containers on average (paper: ~30% fewer),
 * keeps P95 below the SLA essentially always, while the baselines
 * violate at workload peaks (Firm worst due to late detection).
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/controllers.hpp"
#include "workload/generators.hpp"

using namespace erms;
using namespace erms::bench;

namespace {

struct DynamicResult
{
    std::vector<int> containersPerMinute;
    std::vector<double> p95PerMinute;
    double violationMinutes = 0.0; ///< fraction of minutes with P95 > SLA
    double meanContainers = 0.0;
};

DynamicResult
runDynamic(const MicroserviceCatalog &catalog, const Application &app,
           const std::vector<double> &series, double sla,
           const std::function<void(Simulation &, int)> &controller,
           const GlobalPlan &initial_plan,
           telemetry::SimMonitor *monitor = nullptr)
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
    sim.applyPlan(initial_plan);

    DynamicResult result;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        controller(s, minute);
        int total = 0;
        for (const auto &graph : app.graphs) {
            for (MicroserviceId id : graph.nodes())
                total += s.containerCount(id);
        }
        result.containersPerMinute.push_back(total);
        double worst = 0.0;
        for (const auto &graph : app.graphs)
            worst = std::max(worst, s.serviceP95Ms(graph.service()));
        result.p95PerMinute.push_back(worst);
    });
    sim.run();

    StreamingStats containers;
    int violations = 0;
    for (std::size_t m = 1; m < result.p95PerMinute.size(); ++m) {
        containers.add(result.containersPerMinute[m]);
        violations += result.p95PerMinute[m] > sla;
    }
    result.meanContainers = containers.mean();
    result.violationMinutes =
        static_cast<double>(violations) /
        static_cast<double>(result.p95PerMinute.size() - 1);
    return result;
}

} // namespace

int
main()
{
    printBanner(std::cout, "Fig. 13 — dynamic workload (diurnal + bursts, "
                           "SLA 160 ms, hotel-reservation)");

    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    profileApplication(catalog, app);
    const double sla = 160.0;
    constexpr int kMinutes = 24;

    // Half a diurnal cycle over the run: ~8%/minute growth at the
    // steepest point, plus mild noise and short 1.25x bursts.
    const auto series = alibabaLikeSeries(kMinutes, 4000.0, 14000.0,
                                          48.0, 0.05, 0.05, 1.25, 2, 9);

    // Initial deployment carries the same headroom the controllers use,
    // so the run does not start with a seeded backlog.
    const auto services = makeServices(app, sla, series.front() * 1.3);
    const Interference itf{0.25, 0.2};

    BaselineContext context;
    context.catalog = &catalog;

    // Dynamic operation carries extra headroom against within-minute
    // growth (the paper's controller re-plans every minute as well).
    ErmsConfig erms_config;
    erms_config.workloadHeadroom = 1.2;
    ErmsController erms_controller(catalog, erms_config);
    const GlobalPlan initial = erms_controller.plan(services, itf);

    struct Scheme
    {
        std::string name;
        std::function<void(Simulation &, int)> controller;
    };
    std::vector<Scheme> schemes;
    schemes.push_back({"Erms", erms_controller.makeAutoscaler(services)});
    schemes.push_back(
        {"GrandSLAm", makeBaselineAutoscaler(
                          std::make_shared<GrandSlamAllocator>(), context,
                          services, 1.2)});
    schemes.push_back(
        {"Rhythm", makeBaselineAutoscaler(
                       std::make_shared<RhythmAllocator>(), context,
                       services, 1.2)});
    schemes.push_back(
        {"Firm", makeFirmReactiveController(catalog, services)});

    std::vector<DynamicResult> results;
    for (const Scheme &scheme : schemes)
        results.push_back(runDynamic(catalog, app, series, sla,
                                     scheme.controller, initial));

    printBanner(std::cout, "(a) containers over time (every 3rd minute)");
    {
        std::vector<std::string> headers{"minute", "workload"};
        for (const Scheme &scheme : schemes)
            headers.push_back(scheme.name);
        TextTable table(headers);
        for (int m = 1; m < kMinutes; m += 3) {
            auto &row = table.row()
                            .cell(m)
                            .cell(series[static_cast<std::size_t>(m)], 0);
            for (const DynamicResult &r : results)
                row.cell(r.containersPerMinute[static_cast<std::size_t>(m)]);
        }
        table.print(std::cout);
    }

    printBanner(std::cout, "(b) per-minute worst P95 (ms, every 3rd minute)");
    {
        std::vector<std::string> headers{"minute"};
        for (const Scheme &scheme : schemes)
            headers.push_back(scheme.name);
        TextTable table(headers);
        for (int m = 1; m < kMinutes; m += 3) {
            auto &row = table.row().cell(m);
            for (const DynamicResult &r : results)
                row.cell(r.p95PerMinute[static_cast<std::size_t>(m)], 1);
        }
        table.print(std::cout);
    }

    printBanner(std::cout, "summary");
    TextTable summary({"scheme", "mean containers", "vs Erms",
                       "minutes violating SLA %"});
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        summary.row()
            .cell(schemes[k].name)
            .cell(results[k].meanContainers, 1)
            .cell(results[k].meanContainers / results[0].meanContainers, 2)
            .cell(100.0 * results[k].violationMinutes, 1);
    }
    summary.print(std::cout);

    std::cout << "\npaper's anchors: all schemes track the workload; Erms "
                 "saves up to ~30% containers\nand satisfies the SLA "
                 "throughout, while baselines violate at peaks (Firm by "
                 "up to 50%).\n";

    // ------------------------------------------------------------------
    // Scraped-telemetry variant: the same controllers, but every
    // observation (rate, interference, P95, container counts) comes
    // from interval-scraped, span-sampled monitor snapshots instead of
    // oracle simulator state — the information model the paper's §5
    // monitoring loop actually operates under.
    // ------------------------------------------------------------------
    printBanner(std::cout,
                "scraped telemetry vs oracle observation "
                "(30 s scrapes, 10% span sampling)");
    std::vector<DynamicResult> scraped;
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        auto monitor = std::make_shared<telemetry::SimMonitor>(
            telemetry::MonitorConfig{});
        auto view =
            std::make_shared<telemetry::ScrapedTelemetryView>(*monitor);
        std::function<void(Simulation &, int)> controller;
        switch (k) {
        case 0:
            controller = erms_controller.makeAutoscaler(services, view);
            break;
        case 1:
            controller = makeBaselineAutoscaler(
                std::make_shared<GrandSlamAllocator>(), context,
                services, 1.2, view);
            break;
        case 2:
            controller = makeBaselineAutoscaler(
                std::make_shared<RhythmAllocator>(), context, services,
                1.2, view);
            break;
        default:
            controller =
                makeFirmReactiveController(catalog, services, view);
            break;
        }
        scraped.push_back(runDynamic(catalog, app, series, sla,
                                     controller, initial,
                                     monitor.get()));
    }

    TextTable table({"scheme", "mean containers (oracle)",
                     "mean containers (scraped)", "violations % (oracle)",
                     "violations % (scraped)"});
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        table.row()
            .cell(schemes[k].name)
            .cell(results[k].meanContainers, 1)
            .cell(scraped[k].meanContainers, 1)
            .cell(100.0 * results[k].violationMinutes, 1)
            .cell(100.0 * scraped[k].violationMinutes, 1);
    }
    table.print(std::cout);
    std::cout << "\nscraped observation is stale by up to one scrape "
                 "interval and sampled at 10%,\nso controllers react "
                 "slightly later than with oracle reads.\n";
    return 0;
}
