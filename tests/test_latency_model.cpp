/**
 * @file
 * Tests for the piecewise latency model (Eq. (15)), resource shares
 * (Eq. (3)), the synthetic and profile-derived model factories, and the
 * microservice catalog.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "model/catalog.hpp"
#include "model/latency_model.hpp"
#include "model/resource.hpp"

namespace erms {
namespace {

TEST(Resource, DominantShareTakesMax)
{
    ClusterCapacity capacity{100.0, 1000.0};
    // CPU-dominant container.
    EXPECT_DOUBLE_EQ(dominantShare({10.0, 10.0}, capacity), 0.1);
    // Memory-dominant container.
    EXPECT_DOUBLE_EQ(dominantShare({1.0, 500.0}, capacity), 0.5);
}

TEST(Interference, ClampedBounds)
{
    const Interference raw{-0.5, 1.7};
    const Interference clamped = raw.clamped();
    EXPECT_DOUBLE_EQ(clamped.cpuUtil, 0.0);
    EXPECT_DOUBLE_EQ(clamped.memUtil, 1.0);
}

TEST(IntervalParams, SlopeCombinesInterference)
{
    IntervalParams p{2.0, 3.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(p.slope({0.5, 0.5}), 1.0 + 1.0 + 1.5);
    EXPECT_DOUBLE_EQ(p.evaluate(10.0, {0.0, 0.0}), 15.0);
}

SyntheticModelConfig
testConfig()
{
    SyntheticModelConfig config;
    config.baseLatencyMs = 5.0;
    config.slope1 = 0.001;
    config.slope2 = 0.01;
    config.cpuSensitivity = 2.0;
    config.memSensitivity = 3.0;
    config.cutoffAtZero = 4000.0;
    config.cutoffCpuShift = 2000.0;
    config.cutoffMemShift = 2500.0;
    config.cutoffFloor = 200.0;
    return config;
}

TEST(SyntheticModel, ContinuousAtCutoffUnderReference)
{
    const auto model = makeSyntheticModel(testConfig());
    const Interference ref{}; // default reference is idle
    const double sigma = model.cutoff(ref);
    const double below = model.latency(sigma, ref);
    const double above =
        model.params(Interval::AboveCutoff).evaluate(sigma, ref);
    EXPECT_NEAR(below, above, 1e-9);
}

TEST(SyntheticModel, SteeperAboveCutoff)
{
    const auto model = makeSyntheticModel(testConfig());
    const Interference itf{0.3, 0.3};
    const double sigma = model.cutoff(itf);
    const double slope_below =
        model.latency(sigma * 0.9, itf) - model.latency(sigma * 0.8, itf);
    const double slope_above =
        model.latency(sigma * 2.0, itf) - model.latency(sigma * 1.9, itf);
    EXPECT_GT(slope_above, slope_below);
}

TEST(SyntheticModel, InterferenceMovesCutoffForward)
{
    const auto model = makeSyntheticModel(testConfig());
    EXPECT_LT(model.cutoff({0.5, 0.5}), model.cutoff({0.1, 0.1}));
    // Floor respected.
    EXPECT_DOUBLE_EQ(model.cutoff({1.0, 1.0}), 200.0);
}

TEST(SyntheticModel, InterferenceSteepensSlope)
{
    const auto model = makeSyntheticModel(testConfig());
    const auto calm = model.band({0.1, 0.1}, Interval::AboveCutoff);
    const auto busy = model.band({0.6, 0.6}, Interval::AboveCutoff);
    EXPECT_GT(busy.a, calm.a);
}

TEST(SyntheticModel, LatencyMonotoneInWorkload)
{
    const auto model = makeSyntheticModel(testConfig());
    const Interference itf{0.2, 0.4};
    double prev = 0.0;
    for (double x = 100.0; x <= 8000.0; x += 100.0) {
        const double latency = model.latency(x, itf);
        EXPECT_GE(latency, prev);
        prev = latency;
    }
}

MicroserviceProfile
testProfile()
{
    MicroserviceProfile profile;
    profile.name = "test-ms";
    profile.threadsPerContainer = 2;
    profile.baseServiceMs = 20.0;
    profile.cpuSlowdown = 1.0;
    profile.memSlowdown = 1.5;
    profile.networkMs = 0.2;
    return profile;
}

TEST(ProfileModel, CutoffMatchesQueueingKneeAtReference)
{
    const auto model = approximateModelFromProfile(testProfile());
    // True knee at (0.3, 0.3): 0.7 * threads * 60000 / (base * eff).
    const double eff = 1.0 + 1.0 * 0.3 + 1.5 * 0.3;
    const double expected = 0.7 * 2.0 * 60000.0 / (20.0 * eff);
    EXPECT_NEAR(model.cutoff({0.3, 0.3}), expected, expected * 0.02);
}

TEST(ProfileModel, IdleCutoffNotExceeded)
{
    const auto model = approximateModelFromProfile(testProfile());
    const double idle_knee = 0.7 * 2.0 * 60000.0 / 20.0;
    EXPECT_LE(model.cutoff({0.0, 0.0}), idle_knee + 1e-6);
}

TEST(ProfileModel, ContinuityAtReferenceKnee)
{
    const auto model = approximateModelFromProfile(testProfile());
    const Interference ref{0.3, 0.3};
    const double sigma = model.cutoff(ref);
    const double below =
        model.params(Interval::BelowCutoff).evaluate(sigma, ref);
    const double above =
        model.params(Interval::AboveCutoff).evaluate(sigma, ref);
    // The idle-truth cap on the cutoff plane shifts sigma_ref slightly,
    // so continuity holds to a few percent rather than exactly.
    EXPECT_NEAR(below, above, std::max(below, above) * 0.04);
}

TEST(ProfileModel, SlopesPositiveEverywhere)
{
    const auto model = approximateModelFromProfile(testProfile());
    for (double c : {0.0, 0.3, 0.6}) {
        for (double m : {0.0, 0.3, 0.6}) {
            EXPECT_GT(model.band({c, m}, Interval::BelowCutoff).a, 0.0);
            EXPECT_GT(model.band({c, m}, Interval::AboveCutoff).a, 0.0);
        }
    }
}

TEST(Catalog, RegisterAndLookup)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile = testProfile();
    const MicroserviceId id = catalog.add(profile);
    EXPECT_EQ(catalog.size(), 1u);
    EXPECT_EQ(catalog.name(id), "test-ms");
    EXPECT_EQ(catalog.findByName("test-ms"), id);
    EXPECT_EQ(catalog.findByName("missing"), kInvalidMicroservice);
}

TEST(Catalog, ModelAttachment)
{
    MicroserviceCatalog catalog;
    const MicroserviceId id = catalog.add(testProfile());
    EXPECT_FALSE(catalog.hasModel(id));
    EXPECT_THROW(catalog.model(id), ErmsError);
    catalog.setModel(id, approximateModelFromProfile(testProfile()));
    EXPECT_TRUE(catalog.hasModel(id));
    EXPECT_GT(catalog.model(id).cutoff({0.0, 0.0}), 0.0);
}

TEST(Catalog, ModelReferenceSurvivesLaterRegistrations)
{
    MicroserviceCatalog catalog;
    const MicroserviceId id = catalog.add(testProfile());
    catalog.setModel(id, approximateModelFromProfile(testProfile()));
    const PiecewiseLatencyModel &model = catalog.model(id);
    const Interference itf{0.3, 0.2};
    const double cutoff = model.cutoff(itf);
    const double latency = model.latency(0.5 * cutoff, itf);

    // Enough registrations to move any contiguous store several times.
    SyntheticModelConfig other;
    other.cutoffAtZero = 2.0 * cutoff;
    for (int k = 0; k < 1000; ++k) {
        const MicroserviceId next = catalog.add(testProfile());
        if (k % 2 == 0)
            catalog.setModel(next, makeSyntheticModel(other));
    }
    catalog.setModel(id + 2, makeSyntheticModel(other));

    ASSERT_EQ(&catalog.model(id), &model);
    EXPECT_EQ(model.cutoff(itf), cutoff);
    EXPECT_EQ(model.latency(0.5 * cutoff, itf), latency);
    EXPECT_TRUE(catalog.hasModel(id + 2));
    EXPECT_FALSE(catalog.hasModel(id + 4));
    EXPECT_FALSE(
        catalog.hasModel(static_cast<MicroserviceId>(catalog.size())));

    // Replacing the model updates the value behind the same reference.
    catalog.setModel(id, makeSyntheticModel(other));
    ASSERT_EQ(&catalog.model(id), &model);
    EXPECT_EQ(model.cutoff(itf), makeSyntheticModel(other).cutoff(itf));
}

TEST(Catalog, UnknownIdThrows)
{
    MicroserviceCatalog catalog;
    EXPECT_THROW(catalog.profile(0), ErmsError);
    EXPECT_THROW(catalog.name(5), ErmsError);
    EXPECT_THROW(catalog.model(0), ErmsError);
}

TEST(Catalog, IdsAreDense)
{
    MicroserviceCatalog catalog;
    catalog.add(testProfile());
    catalog.add(testProfile());
    const auto ids = catalog.ids();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 0u);
    EXPECT_EQ(ids[1], 1u);
}

} // namespace
} // namespace erms
