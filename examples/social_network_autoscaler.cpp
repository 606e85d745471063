/**
 * @file
 * Closed-loop autoscaling of the Social Network application (the paper's
 * §6.3.2 scenario): profile the application offline, then replay a
 * diurnal workload with bursts while the Erms controller re-plans every
 * minute from observed arrival rates. Prints the per-minute workload,
 * deployed containers and worst P95.
 *
 * Run: ./social_network_autoscaler [minutes=18]
 */

#include <iostream>
#include <optional>

#include "apps/applications.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "workload/generators.hpp"

using namespace erms;

int
main(int argc, char **argv)
{
    const std::optional<int> parsed =
        argc > 1 ? parseNumber<int>(argv[1]) : std::optional<int>(18);
    if (!parsed || *parsed <= 0) {
        std::cerr << "error: minutes='" << argv[1]
                  << "': expected an integer > 0\n";
        return 64;
    }
    const int minutes = *parsed;

    printBanner(std::cout, "Erms closed-loop autoscaler on Social Network");

    // 1. Build the application and profile it offline (§5.2): the sweep
    //    runs the cluster simulator across workload fractions and
    //    interference levels and fits Eq. (15) per microservice.
    MicroserviceCatalog catalog;
    const Application app = makeSocialNetwork(catalog, 0);
    std::cout << "profiling " << app.uniqueMicroservices()
              << " microservices offline (this runs simulated sweeps)...\n";
    std::vector<const DependencyGraph *> graphs;
    for (const auto &graph : app.graphs)
        graphs.push_back(&graph);
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 10000.0;
    sweep.minutesPerCell = 2;
    const auto accuracy = fitAndAttachModels(
        catalog, collectProfilingSamples(catalog, graphs, sweep));
    double mean_accuracy = 0.0;
    for (const auto &[id, acc] : accuracy)
        mean_accuracy += acc;
    std::cout << "fitted " << accuracy.size()
              << " piecewise models, mean training accuracy "
              << mean_accuracy / static_cast<double>(accuracy.size())
              << "\n";

    // 2. Dynamic workload: half a diurnal cycle with mild bursts.
    const auto series =
        alibabaLikeSeries(minutes, 3000.0, 12000.0,
                          2.0 * minutes, 0.05, 0.05, 1.25, 2, 21);

    // 3. Controller with dynamic-operation headroom.
    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < app.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = app.graphs[i].service();
        svc.name = app.serviceNames[i];
        svc.graph = &app.graphs[i];
        svc.slaMs = 310.0;
        svc.workload = series.front() * 1.3;
        services.push_back(svc);
    }
    ErmsConfig config;
    config.workloadHeadroom = 1.2;
    ErmsController controller(catalog, config);
    const Interference itf{0.25, 0.2};

    // 4. Replay.
    SimConfig sim_config;
    sim_config.horizonMinutes = minutes;
    sim_config.warmupMinutes = 1;
    Simulation sim(catalog, sim_config);
    sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        workload.rateSeries = series;
        sim.addService(workload);
    }
    sim.applyPlan(controller.plan(services, itf));

    TextTable timeline({"minute", "workload (req/min)", "containers",
                        "worst P95 (ms)", "within SLA"});
    auto autoscaler = controller.makeAutoscaler(services);
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        autoscaler(s, minute);
        int total = 0;
        for (const auto &graph : app.graphs) {
            for (MicroserviceId id : graph.nodes())
                total += s.containerCount(id);
        }
        double worst = 0.0;
        for (const ServiceSpec &svc : services)
            worst = std::max(worst, s.serviceP95Ms(svc.id));
        timeline.row()
            .cell(minute)
            .cell(series[static_cast<std::size_t>(minute)], 0)
            .cell(total)
            .cell(worst, 1)
            .cell(worst <= 310.0 ? "yes" : "NO");
    });
    sim.run();
    timeline.print(std::cout);

    std::cout << "\nrequests completed: "
              << sim.metrics().requestsCompleted << "\n";
    return 0;
}
