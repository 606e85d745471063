#include "profiling_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace erms {

namespace {

/** Knee workload (requests/min/container) of a microservice at the
 *  injected interference, from its known execution profile: 70% of
 *  threads / inflated-service-time capacity. */
double
profileKnee(const MicroserviceProfile &profile, double cpu_bg, double mem_bg)
{
    const double threads =
        static_cast<double>(std::max(1, profile.threadsPerContainer));
    const double inflated =
        profile.baseServiceMs *
        (1.0 + profile.cpuSlowdown * cpu_bg + profile.memSlowdown * mem_bg);
    return 0.7 * threads * 60000.0 / inflated;
}

} // namespace

std::unordered_map<MicroserviceId, std::vector<ProfilingSample>>
collectProfilingSamples(const MicroserviceCatalog &catalog,
                        const std::vector<const DependencyGraph *> &graphs,
                        const ProfilingSweepConfig &config)
{
    ERMS_ASSERT(!graphs.empty());
    ERMS_ASSERT(!config.loadFractions.empty());
    ERMS_ASSERT(!config.interferenceLevels.empty());
    ERMS_ASSERT(config.ratePerService > 0.0);

    // Aggregate per-microservice workload over all services, so shared
    // microservices get one consistent container count.
    std::unordered_map<MicroserviceId, double> total_gamma;
    for (const DependencyGraph *graph : graphs)
        for (const auto &[id, gamma] :
             graph->workloads(config.ratePerService))
            total_gamma[id] += gamma;

    // One task per cell; the tasks share only const inputs.
    const std::size_t fractions = config.loadFractions.size();
    const std::size_t cells = config.interferenceLevels.size() * fractions;
    std::vector<std::function<std::vector<ProfilingRecord>()>> tasks;
    tasks.reserve(cells);
    for (std::size_t cell = 0; cell < cells; ++cell) {
        tasks.push_back([&, cell] {
            const auto [cpu_bg, mem_bg] =
                config.interferenceLevels[cell / fractions];
            const double fraction = config.loadFractions[cell % fractions];
            SimConfig sim_config;
            sim_config.hostCount = config.hostCount;
            sim_config.horizonMinutes = config.minutesPerCell + 1;
            sim_config.warmupMinutes = 1;
            sim_config.seed = config.seed + cell;
            Simulation sim(catalog, sim_config);
            sim.setBackgroundLoadAll(cpu_bg, mem_bg);

            for (const DependencyGraph *graph : graphs) {
                ServiceWorkload svc;
                svc.id = graph->service();
                svc.graph = graph;
                svc.rate = config.ratePerService;
                sim.addService(svc);
            }
            for (const auto &[id, gamma] : total_gamma) {
                const double knee =
                    profileKnee(catalog.profile(id), cpu_bg, mem_bg);
                // Round up so the realized per-container load never
                // exceeds the intended fraction (rounding down could
                // push a cell into hard saturation and poison the fit).
                const int containers = std::max(
                    1, static_cast<int>(std::ceil(
                           gamma / (fraction * knee) - 1e-9)));
                sim.setContainerCount(id, containers);
            }
            sim.run();
            return sim.metrics().profiling;
        });
    }
    ParallelRunner runner(
        RunnerOptions{resolveWorkerCount(config.runner.workers, cells)});
    const std::vector<std::vector<ProfilingRecord>> records =
        runner.runAll(std::move(tasks));

    std::unordered_map<MicroserviceId, std::vector<ProfilingSample>> samples;
    for (const std::vector<ProfilingRecord> &cell_records : records) {
        for (const ProfilingRecord &record : cell_records) {
            if (record.minute == 0)
                continue; // warmup minute
            ProfilingSample s;
            s.latencyMs = record.tailLatencyMs;
            s.gamma = record.perContainerCalls;
            s.cpuUtil = record.cpuUtil;
            s.memUtil = record.memUtil;
            samples[record.microservice].push_back(s);
        }
    }
    return samples;
}

std::unordered_map<MicroserviceId, double>
fitAndAttachModels(
    MicroserviceCatalog &catalog,
    const std::unordered_map<MicroserviceId, std::vector<ProfilingSample>>
        &samples,
    const PiecewiseFitConfig &fit_config)
{
    std::unordered_map<MicroserviceId, double> accuracy;
    for (const auto &[id, ms_samples] : samples) {
        if (ms_samples.size() < 2 * fit_config.minIntervalSamples)
            continue;
        PiecewiseFitResult result =
            fitPiecewiseModel(ms_samples, fit_config);
        catalog.setModel(id, result.model);
        accuracy.emplace(id, result.trainAccuracy);
    }
    return accuracy;
}

} // namespace erms
