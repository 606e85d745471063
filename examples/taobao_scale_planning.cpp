/**
 * @file
 * Taobao-scale planning (§6.5): generate a synthetic Alibaba-like
 * population (hundreds of services, thousands of microservices, heavy
 * sharing), plan it under the three sharing policies, and report
 * resource usage, priority structure at the hottest shared
 * microservices, and planning overhead.
 *
 * Run: ./taobao_scale_planning [services=300]
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/erms.hpp"
#include "workload/synth_trace.hpp"

using namespace erms;

int
main(int argc, char **argv)
{
    const std::optional<int> parsed =
        argc > 1 ? parseNumber<int>(argv[1]) : std::optional<int>(300);
    if (!parsed || *parsed <= 0) {
        std::cerr << "error: services='" << argv[1]
                  << "': expected an integer > 0\n";
        return 64;
    }
    const int service_count = *parsed;

    printBanner(std::cout, "Taobao-scale planning on synthetic traces");

    SynthTraceConfig config;
    config.microserviceCount = 2500;
    config.serviceCount = service_count;
    config.minGraphSize = 20;
    config.maxGraphSize = 80;
    config.popularitySkew = 0.3;
    config.slaRelativeToKnee = true;
    config.seed = 33;
    const SynthTrace trace = makeSynthTrace(config);

    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < trace.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = trace.graphs[i].service();
        svc.name = "svc" + std::to_string(i);
        svc.graph = &trace.graphs[i];
        svc.slaMs = trace.slaMs[i];
        svc.workload = trace.workloads[i];
        services.push_back(svc);
    }
    std::cout << "population: " << services.size() << " services, "
              << trace.catalog.size() << " microservices, "
              << trace.sharedMicroserviceCount() << " shared\n";

    const Interference itf{0.35, 0.30};
    ErmsController controller(trace.catalog, {});

    printBanner(std::cout, "plans under the three sharing policies");
    TextTable table({"policy", "total containers", "feasible",
                     "planning time (ms)"});
    GlobalPlan priority_plan;
    for (const auto policy :
         {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
          SharingPolicy::NonSharing}) {
        ErmsConfig cfg;
        cfg.policy = policy;
        ErmsController ctrl(trace.catalog, cfg);
        const auto start = std::chrono::steady_clock::now();
        GlobalPlan plan = ctrl.plan(services, itf);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        const char *name = policy == SharingPolicy::Priority
                               ? "Erms (priority)"
                               : policy == SharingPolicy::FcfsSharing
                                     ? "FCFS sharing"
                                     : "non-sharing";
        table.row()
            .cell(name)
            .cell(plan.totalContainers)
            .cell(plan.feasible ? "yes" : "partially")
            .cell(static_cast<double>(elapsed) / 1000.0, 1);
        if (policy == SharingPolicy::Priority)
            priority_plan = std::move(plan);
    }
    table.print(std::cout);

    // Show the priority structure at the three most-shared microservices.
    printBanner(std::cout, "priority structure at the hottest shared "
                           "microservices");
    std::vector<std::pair<std::size_t, MicroserviceId>> hottest;
    for (const auto &[ms, order] : priority_plan.priorityOrder)
        hottest.emplace_back(order.size(), ms);
    std::sort(hottest.rbegin(), hottest.rend());

    TextTable hot({"microservice", "sharing services", "containers",
                   "top-priority service"});
    for (std::size_t k = 0; k < std::min<std::size_t>(3, hottest.size());
         ++k) {
        const MicroserviceId ms = hottest[k].second;
        const auto &order = priority_plan.priorityOrder.at(ms);
        hot.row()
            .cell(trace.catalog.name(ms))
            .cell(order.size())
            .cell(priority_plan.containers.at(ms))
            .cell("svc" + std::to_string(order.front()));
    }
    hot.print(std::cout);

    std::cout << "\nthe paper reports ~15 ms average latency-target "
                 "computation per service and\n~300 ms for 1000+ "
                 "microservice graphs; see bench_scalability for the "
                 "measured curve.\n";
    return 0;
}
