/**
 * @file
 * Tests for the top-level ErmsController, the offline profiling
 * pipeline (including its worker-count invariance), and the closed-loop
 * controllers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "apps/applications.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "io/serialization.hpp"

namespace erms {
namespace {

class CoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        app = makeMotivationShared(catalog, 0);
        for (std::size_t i = 0; i < app.graphs.size(); ++i) {
            ServiceSpec svc;
            svc.id = app.graphs[i].service();
            svc.name = app.serviceNames[i];
            svc.graph = &app.graphs[i];
            svc.slaMs = 300.0;
            svc.workload = 30000.0;
            services.push_back(svc);
        }
    }

    MicroserviceCatalog catalog;
    Application app;
    std::vector<ServiceSpec> services;
};

TEST_F(CoreTest, PlanRespectsConfiguredPolicy)
{
    ErmsConfig priority_cfg;
    priority_cfg.policy = SharingPolicy::Priority;
    ErmsController priority(catalog, priority_cfg);
    EXPECT_EQ(priority.plan(services, {0.3, 0.3}).policy,
              SharingPolicy::Priority);

    ErmsConfig fcfs_cfg;
    fcfs_cfg.policy = SharingPolicy::FcfsSharing;
    ErmsController fcfs(catalog, fcfs_cfg);
    EXPECT_EQ(fcfs.plan(services, {0.3, 0.3}).policy,
              SharingPolicy::FcfsSharing);
}

TEST_F(CoreTest, AutoscalerTracksWorkloadChanges)
{
    ErmsController controller(catalog, {});
    SimConfig config;
    config.horizonMinutes = 10;
    config.warmupMinutes = 2;
    Simulation sim(catalog, config);
    sim.setBackgroundLoadAll(0.2, 0.2);

    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        // Low -> high step at minute 3 (4x).
        workload.rateSeries = {5000, 5000, 5000, 20000, 20000,
                               20000, 20000, 20000, 20000, 20000};
        sim.addService(workload);
    }
    sim.applyPlan(controller.plan(services, {0.2, 0.2}));

    std::vector<int> container_series;
    auto autoscaler = controller.makeAutoscaler(services);
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        autoscaler(s, minute);
        int total = 0;
        for (const auto &g : app.graphs) {
            for (MicroserviceId id : g.nodes())
                total += s.containerCount(id);
        }
        container_series.push_back(total);
    });
    sim.run();

    ASSERT_GE(container_series.size(), 9u);
    // After the step, the autoscaler deploys clearly more containers.
    EXPECT_GT(container_series[6], container_series[2] * 2);
    // Once the one-minute reaction lag and backlog drain have passed,
    // both services are back within SLA.
    for (const ServiceSpec &svc : services)
        EXPECT_LT(sim.metrics().endToEndByMinute.at(svc.id).window(9).p95(),
                  svc.slaMs);
}

TEST_F(CoreTest, ProfilingPipelineProducesSamplesForAllMicroservices)
{
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);

    ProfilingSweepConfig sweep;
    sweep.ratePerService = 20000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.5, 0.4}};
    sweep.minutesPerCell = 2;
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);

    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes()) {
            ASSERT_TRUE(samples.count(id)) << catalog.name(id);
            EXPECT_GE(samples.at(id).size(), 8u);
        }
    }
}

TEST_F(CoreTest, FittedModelsReplaceBootstrapAndAreUsable)
{
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 20000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.35, 0.3}, {0.55, 0.5}};
    sweep.minutesPerCell = 2;
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);
    const auto accuracy = fitAndAttachModels(catalog, samples);
    ASSERT_FALSE(accuracy.empty());
    for (const auto &[id, acc] : accuracy)
        EXPECT_GT(acc, 0.5) << catalog.name(id);

    // The fitted models must be solvable end-to-end.
    ErmsController controller(catalog, {});
    const GlobalPlan plan = controller.plan(services, {0.3, 0.3});
    EXPECT_TRUE(plan.feasible);
    EXPECT_GT(plan.totalContainers, 0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameSample(const ProfilingSample &a, const ProfilingSample &b)
{
    return sameBits(a.latencyMs, b.latencyMs) && sameBits(a.gamma, b.gamma) &&
           sameBits(a.cpuUtil, b.cpuUtil) && sameBits(a.memUtil, b.memUtil);
}

/** The model file of every microservice fitAndAttachModels would fit. */
std::string
fittedModels(const std::unordered_map<MicroserviceId,
                                      std::vector<ProfilingSample>> &samples)
{
    const PiecewiseFitConfig fit;
    std::unordered_map<MicroserviceId, StoredModel> models;
    for (const auto &[id, ms_samples] : samples)
        if (ms_samples.size() >= 2 * fit.minIntervalSamples)
            models.emplace(id,
                           storedFromFit(fitPiecewiseModel(ms_samples, fit)));
    EXPECT_FALSE(models.empty());
    std::ostringstream out;
    writeModels(out, models);
    return out.str();
}

TEST(ProfilingPipeline, SamplesIdenticalAcrossWorkerCounts)
{
    // The cells are independent simulations seeded by their index, and
    // their records are appended in cell order, so neither the samples
    // nor the models fitted from them may depend on the worker count.
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);
    ProfilingSweepConfig sweep;
    sweep.loadFractions = {0.25, 0.5, 0.75, 1.0};
    sweep.interferenceLevels = {{0.1, 0.1}, {0.45, 0.35}};
    sweep.minutesPerCell = 1;
    sweep.ratePerService = 6000.0;
    sweep.hostCount = 8;
    const auto collect = [&](int workers) {
        ProfilingSweepConfig config = sweep;
        config.runner.workers = workers;
        return collectProfilingSamples(catalog, graphs, config);
    };

    const auto serial = collect(1);
    const std::string serial_models = fittedModels(serial);
    for (int workers : {2, 3, 0}) {
        const auto parallel = collect(workers);
        ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
        for (const auto &[id, expected] : serial) {
            const auto it = parallel.find(id);
            ASSERT_NE(it, parallel.end())
                << catalog.name(id) << ", " << workers << " workers";
            ASSERT_EQ(it->second.size(), expected.size())
                << catalog.name(id) << ", " << workers << " workers";
            for (std::size_t i = 0; i < expected.size(); ++i)
                EXPECT_TRUE(sameSample(it->second[i], expected[i]))
                    << catalog.name(id) << " sample " << i << ", "
                    << workers << " workers";
        }
        EXPECT_EQ(fittedModels(parallel), serial_models)
            << workers << " workers";
    }
}

TEST_F(CoreTest, FirmReactiveControllerRespondsToViolations)
{
    SimConfig config;
    config.horizonMinutes = 8;
    config.warmupMinutes = 1;
    Simulation sim(catalog, config);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = 80.0; // tight: violations guaranteed initially
        workload.rate = 30000.0;
        sim.addService(workload);
    }
    // Start under-provisioned.
    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes())
            sim.setContainerCount(id, 1);
    }
    std::vector<ServiceSpec> tight = services;
    for (auto &svc : tight)
        svc.slaMs = 80.0;
    sim.setMinuteCallback(makeFirmReactiveController(catalog, tight));
    sim.run();

    // The controller must have scaled out beyond the single containers.
    int total = 0;
    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes())
            total += sim.containerCount(id);
    }
    EXPECT_GT(total, 6);
}

TEST_F(CoreTest, BaselineAutoscalerAppliesPlans)
{
    BaselineContext context;
    context.catalog = &catalog;
    SimConfig config;
    config.horizonMinutes = 4;
    Simulation sim(catalog, config);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        workload.rate = 20000.0;
        sim.addService(workload);
    }
    sim.setMinuteCallback(makeBaselineAutoscaler(
        std::make_shared<GrandSlamAllocator>(), context, services));
    sim.run();
    // Containers were deployed by the autoscaler.
    const auto idP = catalog.findByName("shr-post-storage");
    EXPECT_GT(sim.containerCount(idP), 1);
}

TEST_F(CoreTest, MediaServicePlansAndValidates)
{
    // The single-service, 38-microservice Media Service end to end:
    // profile, plan, validate.
    MicroserviceCatalog media_catalog;
    const Application media = makeMediaService(media_catalog, 0);
    std::vector<const DependencyGraph *> graphs{&media.graphs[0]};
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 8000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.35, 0.3}};
    sweep.minutesPerCell = 2;
    fitAndAttachModels(media_catalog,
                       collectProfilingSamples(media_catalog, graphs, sweep));

    ServiceSpec svc;
    svc.id = media.graphs[0].service();
    svc.graph = &media.graphs[0];
    svc.slaMs = 600.0; // deep 38-node graph: generous tail-sum budget
    svc.workload = 8000.0;

    const Interference itf{0.3, 0.25};
    ErmsController controller(media_catalog, {});
    const GlobalPlan plan = controller.plan({svc}, itf);
    ASSERT_TRUE(plan.feasible) << plan.infeasibleReason;
    EXPECT_EQ(plan.containers.size(), 38u);

    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    Simulation sim(media_catalog, config);
    sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
    ServiceWorkload load;
    load.id = svc.id;
    load.graph = svc.graph;
    load.rate = svc.workload;
    sim.addService(load);
    sim.applyPlan(plan);
    sim.run();
    EXPECT_LT(sim.metrics().p95(svc.id), svc.slaMs * 1.10);
}

TEST_F(CoreTest, HeadroomMustBeAtLeastOne)
{
    ErmsConfig config;
    config.workloadHeadroom = 0.5;
    EXPECT_THROW(ErmsController(catalog, config), std::logic_error);
}

} // namespace
} // namespace erms
