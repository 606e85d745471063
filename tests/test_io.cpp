/**
 * @file
 * Tests for persistence: fitted-model round-trips (including the cutoff
 * decision tree), plan round-trips, strict rejection of malformed
 * model and plan files (each naming its key path), and the CSV
 * rate-series loader.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "io/serialization.hpp"
#include "workload/generators.hpp"

namespace erms {
namespace {

/** A fitted model with a trained cutoff tree. */
PiecewiseFitResult
makeFit()
{
    SyntheticModelConfig config;
    config.baseLatencyMs = 6.0;
    config.slope1 = 0.002;
    config.slope2 = 0.02;
    config.cpuSensitivity = 1.5;
    config.memSensitivity = 2.0;
    config.cutoffAtZero = 3000.0;
    config.cutoffCpuShift = 1200.0;
    config.cutoffMemShift = 1500.0;
    const auto truth = makeSyntheticModel(config);

    Rng rng(4);
    std::vector<ProfilingSample> samples;
    const std::vector<std::pair<double, double>> levels{
        {0.05, 0.10}, {0.25, 0.20}, {0.45, 0.35}, {0.60, 0.55}};
    for (int i = 0; i < 400; ++i) {
        const auto &[c, m] =
            levels[static_cast<std::size_t>(rng.uniformInt(0, 3))];
        ProfilingSample s;
        s.cpuUtil = c;
        s.memUtil = m;
        const double sigma = truth.cutoff({c, m});
        s.gamma = rng.uniform(0.05 * sigma, 2.0 * sigma);
        s.latencyMs = truth.latency(s.gamma, {c, m});
        samples.push_back(s);
    }
    return fitPiecewiseModel(samples);
}

TEST(ModelSerialization, RoundTripPreservesPredictions)
{
    const PiecewiseFitResult fit = makeFit();
    std::unordered_map<MicroserviceId, StoredModel> models;
    models.emplace(3, storedFromFit(fit));

    std::stringstream buffer;
    writeModels(buffer, models);
    const auto loaded = readModels(buffer);
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_TRUE(loaded.count(3));

    const PiecewiseLatencyModel restored = loaded.at(3).toModel();
    for (double c : {0.05, 0.3, 0.6}) {
        for (double m : {0.1, 0.35, 0.55}) {
            const Interference itf{c, m};
            EXPECT_NEAR(restored.cutoff(itf), fit.model.cutoff(itf), 1e-9);
            for (double load : {200.0, 1500.0, 3000.0, 5000.0}) {
                EXPECT_NEAR(restored.latency(load, itf),
                            fit.model.latency(load, itf), 1e-9);
            }
        }
    }
}

TEST(ModelSerialization, UntrainedTreeUsesFallback)
{
    StoredModel stored;
    stored.below = IntervalParams{0.0, 0.0, 0.001, 5.0};
    stored.above = IntervalParams{0.0, 0.0, 0.01, 2.0};
    stored.cutoffFallback = 1234.0;
    std::stringstream buffer;
    writeModels(buffer, {{7, stored}});
    const auto loaded = readModels(buffer);
    EXPECT_DOUBLE_EQ(loaded.at(7).cutoffAt({0.5, 0.5}), 1234.0);
}

TEST(ModelSerialization, AttachToCatalog)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "ms";
    const auto id = catalog.add(profile);

    StoredModel stored;
    stored.below = IntervalParams{0.0, 0.0, 0.001, 5.0};
    stored.above = IntervalParams{0.0, 0.0, 0.01, 2.0};
    stored.cutoffFallback = 500.0;
    attachModels(catalog, {{id, stored}});
    ASSERT_TRUE(catalog.hasModel(id));
    EXPECT_DOUBLE_EQ(catalog.model(id).cutoff({0.0, 0.0}), 500.0);
}

/** Message of the ErmsError `fn` throws ("" when it does not throw). */
template <class Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const ErmsError &e) {
        return e.what();
    }
    return "";
}

std::string
modelFile(const StoredModel &stored)
{
    std::stringstream buffer;
    writeModels(buffer, {{7, stored}});
    return buffer.str();
}

std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

TEST(ModelSerialization, RejectsBadHeaderAndTruncation)
{
    {
        std::stringstream buffer("not-a-header\n");
        EXPECT_THROW(readModels(buffer), ErmsError);
    }
    {
        StoredModel stored;
        const std::string text = modelFile(stored);
        std::stringstream buffer(text.substr(0, text.size() / 2));
        EXPECT_THROW(readModels(buffer), ErmsError);
    }
}

TEST(ModelSerialization, RejectsTrailingJunkUnknownKeysAndPlans)
{
    StoredModel stored;
    stored.below = IntervalParams{0.0, 0.0, 0.001, 5.0};
    stored.cutoffTree.push_back({0, 0.4, 2500.0, 1, 2});
    const std::string good = modelFile(stored);
    std::stringstream plan;
    writePlan(plan, GlobalPlan{});
    const std::pair<std::string, const char *> cases[] = {
        // The line format used to read "0.001junk" as 0.001.
        {replaced(good, "0.001", "0.001junk"), "models.7.below.c"},
        {replaced(good, "\"left\": 1", "\"left\": 1.5"),
         "models.7.cutoff_tree[0].left"},
        {replaced(good, "\"b\": 5", "\"b\": 5, \"d\": 0"),
         "models.7.below.d"},
        {replaced(good, "\"7\"", "\"07\""), "models.07"},
        {good + "x", "document"},
        {plan.str(), "format"},
    };
    for (const auto &[text, path] : cases) {
        std::stringstream buffer(text);
        const std::string message = errorOf([&] { readModels(buffer); });
        EXPECT_NE(message.find(std::string("json: ") + path),
                  std::string::npos)
            << path << " -> '" << message << "'";
    }
}

TEST(PlanSerialization, RoundTrip)
{
    GlobalPlan plan;
    plan.policy = SharingPolicy::Priority;
    plan.feasible = true;
    plan.containers[4] = 12;
    plan.containers[9] = 3;
    plan.priorityOrder[4] = {2, 0, 1};
    plan.totalContainers = 15;

    std::stringstream buffer;
    writePlan(buffer, plan);
    const GlobalPlan loaded = readPlan(buffer);
    EXPECT_EQ(loaded.policy, SharingPolicy::Priority);
    EXPECT_TRUE(loaded.feasible);
    EXPECT_EQ(loaded.containers.at(4), 12);
    EXPECT_EQ(loaded.containers.at(9), 3);
    EXPECT_EQ(loaded.priorityOrder.at(4),
              (std::vector<ServiceId>{2, 0, 1}));
    EXPECT_EQ(loaded.totalContainers, 15);
}

TEST(PlanSerialization, AllPoliciesRoundTrip)
{
    for (const auto policy :
         {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
          SharingPolicy::NonSharing}) {
        GlobalPlan plan;
        plan.policy = policy;
        std::stringstream buffer;
        writePlan(buffer, plan);
        EXPECT_EQ(readPlan(buffer).policy, policy);
    }
}

TEST(PlanSerialization, RejectsGarbage)
{
    GlobalPlan plan;
    plan.containers[4] = 12;
    std::stringstream written;
    writePlan(written, plan);
    const std::string good = written.str();
    const std::pair<std::string, const char *> cases[] = {
        {replaced(good, "\"feasible\"", "\"bogus\": 1, \"feasible\""),
         "bogus"},
        {good.substr(0, good.size() - 2), "priority_order"},
        // The line format used to read a count "1abc" as 1.
        {replaced(good, "12", "1abc"), "containers.4"},
        {replaced(good, "12", "-1"), "containers.4"},
        {replaced(good, "\"priority\"", "\"fifo\""), "policy"},
        {replaced(good, "erms-plan", "erms-models"), "format"},
    };
    for (const auto &[text, path] : cases) {
        std::stringstream buffer(text);
        const std::string message = errorOf([&] { readPlan(buffer); });
        EXPECT_NE(message.find(std::string("json: ") + path),
                  std::string::npos)
            << path << " -> '" << message << "'";
    }
}

TEST(CsvRates, ParsesValuesCommentsAndSecondColumns)
{
    std::stringstream csv("# minute,rate\n1000\n2000, extra\n\n 3000\n");
    const auto series = rateSeriesFromCsv(csv);
    EXPECT_EQ(series, (std::vector<double>{1000.0, 2000.0, 3000.0}));
}

TEST(CsvRates, RejectsNegativeAndNonNumeric)
{
    {
        std::stringstream csv("100\n-5\n");
        EXPECT_THROW(rateSeriesFromCsv(csv), ErmsError);
    }
    {
        std::stringstream csv("abc\n");
        EXPECT_THROW(rateSeriesFromCsv(csv), ErmsError);
    }
    // Each of these used to load as its numeric prefix (or as 0).
    for (const char *row : {"12abc", "0x10", "7;8", "1,2,3", "5 6 7", "nan",
                            "inf", "-inf", "1e999", ",5", "+5"}) {
        std::stringstream csv(std::string("100\n") + row + "\n");
        const std::string message = errorOf([&] { rateSeriesFromCsv(csv); });
        EXPECT_NE(message.find("line 2: '"), std::string::npos)
            << row << " -> '" << message << "'";
    }
}

TEST(CsvRates, EmptyInputGivesEmptySeries)
{
    std::stringstream csv("# nothing\n\n");
    EXPECT_TRUE(rateSeriesFromCsv(csv).empty());
}

} // namespace
} // namespace erms
