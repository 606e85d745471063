/**
 * @file
 * Command-line front end mirroring the paper artifact's script-per-module
 * workflow (Appendix B): profile an application, save/load the fitted
 * models, compute a plan, persist it, and validate it in the simulator.
 *
 * Usage:
 *   erms_cli profile  <app> <models-file>
 *   erms_cli plan     <app> <models-file> <sla-ms> <req-per-min>
 *                     [priority|fcfs|non-sharing] [plan-file]
 *   erms_cli validate <app> <models-file> <plan-file> <sla-ms>
 *                     <req-per-min>
 *   erms_cli demo     <app>
 *
 * <app> is one of: hotel, social, media.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "apps/applications.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "io/serialization.hpp"

using namespace erms;

namespace {

Application
makeApp(const std::string &name, MicroserviceCatalog &catalog)
{
    if (name == "hotel")
        return makeHotelReservation(catalog, 0);
    if (name == "social")
        return makeSocialNetwork(catalog, 0);
    if (name == "media")
        return makeMediaService(catalog, 0);
    throw ErmsError("unknown application '" + name +
                    "' (expected hotel|social|media)");
}

std::vector<ServiceSpec>
makeServices(const Application &app, double sla, double workload)
{
    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < app.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = app.graphs[i].service();
        svc.name = app.serviceNames[i];
        svc.graph = &app.graphs[i];
        svc.slaMs = sla;
        svc.workload = workload;
        services.push_back(svc);
    }
    return services;
}

int
cmdProfile(const std::string &app_name, const std::string &path)
{
    MicroserviceCatalog catalog;
    const Application app = makeApp(app_name, catalog);
    std::cout << "profiling " << app.name << " ("
              << app.uniqueMicroservices() << " microservices)...\n";

    std::vector<const DependencyGraph *> graphs;
    for (const auto &graph : app.graphs)
        graphs.push_back(&graph);
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 12000.0;
    sweep.minutesPerCell = 2;
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);

    std::unordered_map<MicroserviceId, StoredModel> stored;
    double accuracy_sum = 0.0;
    for (const auto &[id, ms_samples] : samples) {
        if (ms_samples.size() < 8)
            continue;
        const PiecewiseFitResult fit = fitPiecewiseModel(ms_samples);
        stored.emplace(id, storedFromFit(fit));
        accuracy_sum += fit.trainAccuracy;
    }
    std::ofstream out(path);
    if (!out)
        throw ErmsError("cannot write " + path);
    writeModels(out, stored);
    std::cout << "wrote " << stored.size() << " models to " << path
              << " (mean training accuracy "
              << accuracy_sum / static_cast<double>(stored.size())
              << ")\n";
    return 0;
}

SharingPolicy
parsePolicy(const std::string &text)
{
    if (text == "priority")
        return SharingPolicy::Priority;
    if (text == "fcfs")
        return SharingPolicy::FcfsSharing;
    if (text == "non-sharing")
        return SharingPolicy::NonSharing;
    throw ErmsError("unknown policy '" + text + "'");
}

int
cmdPlan(const std::string &app_name, const std::string &models_path,
        double sla, double workload, const std::string &policy_text,
        const std::string &plan_path)
{
    MicroserviceCatalog catalog;
    const Application app = makeApp(app_name, catalog);
    {
        std::ifstream in(models_path);
        if (!in)
            throw ErmsError("cannot read " + models_path);
        attachModels(catalog, readModels(in));
    }

    ErmsConfig config;
    config.policy = parsePolicy(policy_text);
    ErmsController controller(catalog, config);
    const auto services = makeServices(app, sla, workload);
    const GlobalPlan plan = controller.plan(services, {0.3, 0.25});

    printBanner(std::cout, "plan (" + policy_text + ")");
    TextTable table({"microservice", "containers"});
    for (const auto &[id, count] : plan.containers)
        table.row().cell(catalog.name(id)).cell(count);
    table.print(std::cout);
    std::cout << "total containers: " << plan.totalContainers
              << (plan.feasible ? "" : "  (SLA infeasible: " +
                                           plan.infeasibleReason + ")")
              << "\n";

    if (!plan_path.empty()) {
        std::ofstream out(plan_path);
        if (!out)
            throw ErmsError("cannot write " + plan_path);
        writePlan(out, plan);
        std::cout << "plan written to " << plan_path << "\n";
    }
    return plan.feasible ? 0 : 2;
}

int
cmdValidate(const std::string &app_name, const std::string &models_path,
            const std::string &plan_path, double sla, double workload)
{
    MicroserviceCatalog catalog;
    const Application app = makeApp(app_name, catalog);
    {
        std::ifstream in(models_path);
        if (!in)
            throw ErmsError("cannot read " + models_path);
        attachModels(catalog, readModels(in));
    }
    GlobalPlan plan;
    {
        std::ifstream in(plan_path);
        if (!in)
            throw ErmsError("cannot read " + plan_path);
        plan = readPlan(in);
    }

    SimConfig sim_config;
    sim_config.horizonMinutes = 5;
    sim_config.warmupMinutes = 1;
    Simulation sim(catalog, sim_config);
    sim.setBackgroundLoadAll(0.3, 0.25);
    const auto services = makeServices(app, sla, workload);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload load;
        load.id = svc.id;
        load.graph = svc.graph;
        load.slaMs = svc.slaMs;
        load.rate = svc.workload;
        sim.addService(load);
    }
    sim.applyPlan(plan);
    sim.run();

    printBanner(std::cout, "validation");
    TextTable table({"service", "P95 (ms)", "violation %"});
    bool ok = true;
    for (const ServiceSpec &svc : services) {
        const double p95 = sim.metrics().p95(svc.id);
        ok = ok && p95 <= sla;
        table.row()
            .cell(svc.name)
            .cell(p95, 1)
            .cell(100.0 * sim.metrics().violationRate(svc.id, sla), 2);
    }
    table.print(std::cout);
    return ok ? 0 : 2;
}

/** Argument `name` of the usage line: the whole text must be one finite
 *  number above zero. @throws ErmsError naming the argument. */
double
positiveNumber(const char *name, const std::string &text)
{
    const std::optional<double> value = parseNumber<double>(text);
    if (!value || !std::isfinite(*value) || *value <= 0.0)
        throw ErmsError(std::string(name) + "='" + text +
                        "': expected a number > 0");
    return *value;
}

int
usage()
{
    std::cerr
        << "usage:\n"
           "  erms_cli profile  <app> <models-file>\n"
           "  erms_cli plan     <app> <models-file> <sla-ms> "
           "<req-per-min> [policy] [plan-file]\n"
           "  erms_cli validate <app> <models-file> <plan-file> <sla-ms> "
           "<req-per-min>\n"
           "  erms_cli demo     <app>\n"
           "apps: hotel | social | media; policies: priority | fcfs | "
           "non-sharing\n";
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string command = argc > 1 ? argv[1] : "";
        if (command == "profile" && argc == 4)
            return cmdProfile(argv[2], argv[3]);
        if (command == "plan" && (argc == 6 || argc == 7 || argc == 8)) {
            return cmdPlan(argv[2], argv[3], positiveNumber("sla-ms", argv[4]),
                           positiveNumber("req-per-min", argv[5]),
                           argc > 6 ? argv[6] : "priority",
                           argc > 7 ? argv[7] : "");
        }
        if (command == "validate" && argc == 7) {
            return cmdValidate(argv[2], argv[3], argv[4],
                               positiveNumber("sla-ms", argv[5]),
                               positiveNumber("req-per-min", argv[6]));
        }
        if (command == "demo" && argc == 3) {
            // profile -> plan -> validate in one go, via temp files.
            const std::string models = "/tmp/erms_demo_models.txt";
            const std::string plan = "/tmp/erms_demo_plan.txt";
            if (int rc = cmdProfile(argv[2], models))
                return rc;
            if (int rc = cmdPlan(argv[2], models, 200.0, 12000.0,
                                 "priority", plan))
                return rc;
            return cmdValidate(argv[2], models, plan, 200.0, 12000.0);
        }
        return usage();
    } catch (const std::exception &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
}
