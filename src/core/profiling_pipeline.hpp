/**
 * @file
 * Offline profiling pipeline (§5.2, Fig. 6 module 2): run the cluster
 * simulator across a grid of workloads and injected interference levels,
 * collect per-minute samples d_i^j for every microservice, fit the
 * piecewise latency model of Eq. (15), and attach the fitted models to a
 * catalog. This is the paper's multi-day DeathStarBench profiling run,
 * compressed into simulated minutes. The sweep's cells are independent
 * simulations, so they fan out over a ParallelRunner.
 */

#ifndef ERMS_CORE_PROFILING_PIPELINE_HPP
#define ERMS_CORE_PROFILING_PIPELINE_HPP

#include <unordered_map>
#include <vector>

#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "profiling/piecewise_fit.hpp"
#include "profiling/sample.hpp"
#include "runner/parallel_runner.hpp"

namespace erms {

/** Grid configuration of the profiling sweep. */
struct ProfilingSweepConfig
{
    /**
     * Per-container load levels to visit, as fractions of each
     * microservice's knee workload (0.7x capacity) at the injected
     * interference. Fractions > 1 probe the steep second interval while
     * staying below hard saturation — mirroring the paper's controlled
     * sweep (Fig. 3 covers 0..~4000 requests/min/container). Container
     * counts are derived per cell from the service rate so every
     * microservice actually sees the requested per-container load.
     */
    std::vector<double> loadFractions{0.25, 0.5, 0.75, 1.0, 1.25};
    /** Request rate per service while profiling (requests/minute). */
    double ratePerService = 20000.0;
    /** Injected (CPU, memory) background utilization pairs. */
    std::vector<std::pair<double, double>> interferenceLevels{
        {0.05, 0.10}, {0.25, 0.20}, {0.45, 0.35}, {0.60, 0.55}};
    /** Simulated minutes per (fraction, interference) cell. */
    int minutesPerCell = 3;
    int hostCount = 20;
    /** Cell c (interference-major, c = 0, 1, ...) simulates with seed
     *  `seed + c`. */
    std::uint64_t seed = 11;
    /** Workers that run the cells (0 = hardware), capped at the cell
     *  count. The samples do not depend on it. */
    RunnerOptions runner{};
};

/**
 * Run the sweep for a set of services over one catalog: one runner task
 * per (interference, load fraction) cell, each with its own Simulation.
 * Returns the collected per-minute samples per microservice, appended
 * in cell order and, within a cell, in record order, so they are the
 * same at every worker count. Every call runs the whole sweep.
 */
std::unordered_map<MicroserviceId, std::vector<ProfilingSample>>
collectProfilingSamples(const MicroserviceCatalog &catalog,
                        const std::vector<const DependencyGraph *> &graphs,
                        const ProfilingSweepConfig &config);

/**
 * Fit Eq. (15) per microservice and attach the fitted models to the
 * catalog (replacing any bootstrap models). Microservices with too few
 * samples keep their previous model. Returns per-microservice training
 * accuracy.
 */
std::unordered_map<MicroserviceId, double>
fitAndAttachModels(MicroserviceCatalog &catalog,
                   const std::unordered_map<MicroserviceId,
                                            std::vector<ProfilingSample>>
                       &samples,
                   const PiecewiseFitConfig &fit_config = {});

} // namespace erms

#endif // ERMS_CORE_PROFILING_PIPELINE_HPP
