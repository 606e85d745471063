/**
 * @file
 * Tests of the benchmark's own machinery: percentiles carry their sample
 * count and refuse under-sampled tails, the host scale is the idle
 * reference time over the median measured one, span self time subtracts nested
 * and overlapping parallel children correctly, and the seed changes the
 * generated inputs of each workload and nothing else.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness.hpp"
#include "workload/synth_trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

TEST(Percentile, ReportsSampleCount)
{
    const Percentile p = median({5.0, 1.0, 3.0});
    EXPECT_DOUBLE_EQ(p.value, 3.0);
    EXPECT_EQ(p.samples, 3u);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(values, 0.5).value, 50.0);
    const Percentile p90 = percentile(values, 0.9);
    EXPECT_DOUBLE_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
}

TEST(Percentile, RefusesP90BelowHundredSamples)
{
    std::vector<double> values(99, 1.0);
    EXPECT_THROW(percentile(values, 0.9), std::invalid_argument);
    values.push_back(2.0);
    EXPECT_NO_THROW(percentile(values, 0.9));
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(HostScale, IdleOverMedianReference)
{
    // A host running the reference at half speed halves the scale; the
    // median ignores one outlying sample.
    const double slow = 2.0 * kReferenceIdleMs;
    EXPECT_DOUBLE_EQ(hostScale({slow, slow, 100.0 * slow}), 0.5);
    EXPECT_DOUBLE_EQ(hostScale({kReferenceIdleMs}), 1.0);
    EXPECT_THROW(hostScale({}), std::invalid_argument);
}

TEST(HostScale, ReferenceKernelTakesCpuTime)
{
    const double ms = fastestReferenceMs(2);
    EXPECT_GT(ms, 0.0);
    EXPECT_GT(parallelReferenceMs(2, 1), 0.0);
}

namespace {

Span
span(const char *name, std::int64_t start, std::int64_t end, int parent)
{
    return Span{name, start, end, parent, 0};
}

} // namespace

TEST(SelfTime, NestedChildren)
{
    // root [0,100) > a [10,40) > b [20,30); root > c [50,60)
    const std::vector<Span> spans{span("root", 0, 100, -1),
                                  span("a", 10, 40, 0),
                                  span("b", 20, 30, 1),
                                  span("c", 50, 60, 0)};
    const auto self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 30 - 10);
    EXPECT_EQ(self[1], 30 - 10);
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingParallelChildrenCountOnce)
{
    // Three shard callbacks in parallel: [10,50), [20,60), [70,80), and
    // one that starts before the parent and is clipped to it.
    const std::vector<Span> spans{span("round", 5, 100, -1),
                                  span("s0", 10, 50, 0),
                                  span("s1", 20, 60, 0),
                                  span("s2", 70, 80, 0),
                                  span("s3", 0, 8, 0)};
    const auto self = selfTimesNs(spans);
    // Covered: [5,8) + [10,60) + [70,80) = 3 + 50 + 10.
    EXPECT_EQ(self[0], 95 - 63);
    EXPECT_EQ(self[1], 40);
}

TEST(SelfTime, TracerRecordsNestingPerThread)
{
    Tracer tracer(true);
    {
        Tracer::Scope outer(tracer, "outer", 0);
        Tracer::Scope inner(tracer, "inner", 0);
        EXPECT_EQ(tracer.spans()[static_cast<std::size_t>(inner.id())].parent,
                  outer.id());
    }
    Tracer off(false);
    Tracer::Scope none(off, "x", 0);
    EXPECT_EQ(none.id(), -1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(SeedInputs, DeathstarSeedChangesRatesAndFaultSeedsOnly)
{
    const DeathstarInputs a = deathstarInputs(1);
    const DeathstarInputs b = deathstarInputs(2);
    EXPECT_TRUE(a.knobs == b.knobs);
    EXPECT_EQ(a.rates.size(), b.rates.size());
    EXPECT_NE(a.rates, b.rates);
    EXPECT_NE(a.simSeed, b.simSeed);
    EXPECT_NE(a.faultSeed, b.faultSeed);
    EXPECT_NE(a.azSeed, b.azSeed);
    EXPECT_NE(a.telemetryFaultSeed, b.telemetryFaultSeed);
    const DeathstarInputs again = deathstarInputs(1);
    EXPECT_EQ(a.rates, again.rates);
    EXPECT_EQ(a.faultSeed, again.faultSeed);
}

TEST(SeedInputs, TaobaoSeedChangesRatesOnly)
{
    const TaobaoInputs a = taobaoInputs(1);
    const TaobaoInputs b = taobaoInputs(2);
    EXPECT_TRUE(a.knobs == b.knobs);
    EXPECT_EQ(a.rates.size(), b.rates.size());
    EXPECT_NE(a.rates, b.rates);
    EXPECT_NE(a.simSeed, b.simSeed);
    EXPECT_EQ(a.rates, taobaoInputs(1).rates);
}

TEST(SeedInputs, PlanSeedChangesRatesAndHostsOnly)
{
    const PlanInputs a = planInputs(1);
    const PlanInputs b = planInputs(2);
    EXPECT_TRUE(a.knobs == b.knobs);
    EXPECT_NE(a.rateSeed, b.rateSeed);
    EXPECT_NE(a.hostSeed, b.hostSeed);

    // The population is the same fixture under every seed; the rate
    // series replayed over it follow the seed.
    const erms::SynthTrace ta = erms::makeSynthTrace(planTraceConfig(a));
    const erms::SynthTrace tb = erms::makeSynthTrace(planTraceConfig(b));
    EXPECT_EQ(ta.workloads, tb.workloads);
    EXPECT_EQ(ta.slaMs, tb.slaMs);
    const auto ra = erms::makeTraceRateSeries(ta, 5, a.knobs.troughFraction,
                                              a.knobs.burstProbability,
                                              a.rateSeed);
    const auto rb = erms::makeTraceRateSeries(tb, 5, b.knobs.troughFraction,
                                              b.knobs.burstProbability,
                                              b.rateSeed);
    EXPECT_NE(ra, rb);
}
