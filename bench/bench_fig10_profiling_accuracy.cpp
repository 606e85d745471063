/**
 * @file
 * Fig. 10 reproduction: profiling accuracy of Erms' piecewise-linear
 * fitter against the XGBoost-like GBDT and the 64-neuron NN baselines.
 *  (a) test accuracy per application (simulator-collected samples from
 *      the DeathStarBench-like apps) and on the synthetic Alibaba
 *      stand-in;
 *  (b) test accuracy vs the fraction of training data (the paper's
 *      headline: the NN degrades sharply with less data while the
 *      piecewise fit stays useful).
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "profiling/gbdt.hpp"
#include "profiling/mlp.hpp"
#include "profiling/piecewise_fit.hpp"
#include "workload/synth_trace.hpp"

using namespace erms;
using namespace erms::bench;

namespace {

/** Mean test accuracy of the three fitters over per-µs sample sets. */
struct AccuracyRow
{
    double erms = 0.0;
    double gbdt = 0.0;
    double mlp = 0.0;
    int fitted = 0;
};

AccuracyRow
evaluateFitters(
    const std::vector<std::vector<ProfilingSample>> &per_microservice,
    double train_fraction)
{
    AccuracyRow row;
    MlpConfig mlp_config;
    mlp_config.epochs = 80;

    for (const auto &samples : per_microservice) {
        std::vector<ProfilingSample> train, test;
        splitSamples(samples, train_fraction, train, test);
        if (train.size() < 10 || test.size() < 5)
            continue;
        std::vector<double> actual;
        actual.reserve(test.size());
        for (const auto &s : test)
            actual.push_back(s.latencyMs);

        const auto pw = fitPiecewiseModel(train);
        row.erms += profilingAccuracy(predictAll(pw.model, test), actual);

        GbdtRegressor gbdt;
        gbdt.fit(train);
        row.gbdt += profilingAccuracy(gbdt.predictAll(test), actual);

        MlpRegressor mlp(mlp_config);
        mlp.fit(train);
        row.mlp += profilingAccuracy(mlp.predictAll(test), actual);

        ++row.fitted;
    }
    if (row.fitted > 0) {
        row.erms /= row.fitted;
        row.gbdt /= row.fitted;
        row.mlp /= row.fitted;
    }
    return row;
}

/** Simulator-collected per-µs samples for an application (subset of
 *  microservices to bound runtime). */
std::vector<std::vector<ProfilingSample>>
collectAppSamples(const Application &app, MicroserviceCatalog &catalog,
                  std::size_t max_microservices)
{
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 8000.0;
    sweep.minutesPerCell = 2;
    sweep.runner = runnerOptionsFromEnv();
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);

    std::vector<std::vector<ProfilingSample>> result;
    for (const auto &[id, set] : samples) {
        if (result.size() >= max_microservices)
            break;
        if (set.size() >= 20)
            result.push_back(set);
    }
    return result;
}

/** Synthetic "Alibaba/Taobao" sample sets drawn from the trace models. */
std::vector<std::vector<ProfilingSample>>
collectSyntheticSamples(int microservices, int samples_per_ms,
                        std::uint64_t seed)
{
    SynthTraceConfig config;
    config.microserviceCount = microservices;
    config.serviceCount = 10;
    config.minGraphSize = std::min(5, microservices);
    config.maxGraphSize = microservices;
    config.seed = seed;
    const SynthTrace trace = makeSynthTrace(config);

    Rng rng(seed ^ 0x1234);
    std::vector<std::vector<ProfilingSample>> result;
    for (MicroserviceId id : trace.catalog.ids()) {
        const auto &model = trace.catalog.model(id);
        std::vector<ProfilingSample> set;
        // The paper fixes the injected interference per hour (§6.2), so
        // samples arrive at discrete interference levels.
        static const std::pair<double, double> kLevels[] = {
            {0.05, 0.10}, {0.15, 0.15}, {0.25, 0.20}, {0.35, 0.30},
            {0.45, 0.35}, {0.55, 0.45}, {0.62, 0.50}, {0.70, 0.60}};
        for (int i = 0; i < samples_per_ms; ++i) {
            ProfilingSample s;
            const auto &[lvl_c, lvl_m] = kLevels[static_cast<std::size_t>(
                rng.uniformInt(0, 7))];
            s.cpuUtil = lvl_c + rng.uniform(-0.02, 0.02);
            s.memUtil = lvl_m + rng.uniform(-0.02, 0.02);
            const double sigma =
                model.cutoff({s.cpuUtil, s.memUtil});
            s.gamma = rng.uniform(0.05 * sigma, 1.6 * sigma);
            // Measurement noise as in production traces.
            s.latencyMs = model.latency(s.gamma, {s.cpuUtil, s.memUtil}) *
                          rng.logNormalMeanCv(1.0, 0.08);
            set.push_back(s);
        }
        result.push_back(std::move(set));
    }
    return result;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Fig. 10(a) — profiling test accuracy per workload "
                "(70% train / 30% test)");

    TextTable per_app({"workload", "Erms piecewise", "XGBoost-like",
                       "NN (64)", "microservices"});

    {
        MicroserviceCatalog catalog;
        const Application app = makeHotelReservation(catalog, 0);
        const auto samples = collectAppSamples(app, catalog, 10);
        const AccuracyRow row = evaluateFitters(samples, 0.7);
        per_app.row()
            .cell("hotel-reservation")
            .cell(row.erms, 3)
            .cell(row.gbdt, 3)
            .cell(row.mlp, 3)
            .cell(row.fitted);
    }
    {
        MicroserviceCatalog catalog;
        const Application app = makeSocialNetwork(catalog, 0);
        const auto samples = collectAppSamples(app, catalog, 10);
        const AccuracyRow row = evaluateFitters(samples, 0.7);
        per_app.row()
            .cell("social-network")
            .cell(row.erms, 3)
            .cell(row.gbdt, 3)
            .cell(row.mlp, 3)
            .cell(row.fitted);
    }
    const auto synthetic = collectSyntheticSamples(12, 160, 3);
    {
        const AccuracyRow row = evaluateFitters(synthetic, 0.7);
        per_app.row()
            .cell("alibaba-synthetic")
            .cell(row.erms, 3)
            .cell(row.gbdt, 3)
            .cell(row.mlp, 3)
            .cell(row.fitted);
    }
    per_app.print(std::cout);
    std::cout << "\npaper's anchor: 83%-88% across schemes and workloads.\n";

    printBanner(std::cout,
                "Fig. 10(b) — accuracy vs training-data fraction "
                "(alibaba-synthetic)");
    TextTable by_fraction({"train fraction", "Erms piecewise",
                           "XGBoost-like", "NN (64)"});
    for (double fraction : {0.2, 0.35, 0.5, 0.7, 0.9}) {
        const AccuracyRow row = evaluateFitters(synthetic, fraction);
        by_fraction.row()
            .cell(fraction, 2)
            .cell(row.erms, 3)
            .cell(row.gbdt, 3)
            .cell(row.mlp, 3);
    }
    by_fraction.print(std::cout);
    std::cout << "\npaper's anchor: Erms keeps ~81% accuracy at 70% of the "
                 "training data while the NN\ndegrades dramatically as "
                 "training data shrinks.\n";
    return 0;
}
