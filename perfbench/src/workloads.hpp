/**
 * @file
 * The benchmark's three workloads. Each splits its inputs into fixed
 * knobs and the parts generated from the seed, so a test can show that
 * a different seed changes the generated rates, traces and fault seeds
 * and nothing else. See perfbench/README.md for why each was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "workload/synth_trace.hpp"

namespace perfbench {

// --- deathstar_chaos ---------------------------------------------------

struct DeathstarKnobs
{
    int hostCount = 20;
    int minutes = 20;
    int warmupMinutes = 1;
    /** Hotel Reservation at Fig. 13's SLA; Social Network's compose
     *  graph alone has an aggregate intercept above 160 ms. */
    double hotelSlaMs = 160.0;
    double socialSlaMs = 500.0;
    double headroom = 1.2;
    /** Diurnal trough and crest per service (requests/minute). */
    double hotelBase = 1500.0;
    double hotelPeak = 4500.0;
    double socialBase = 750.0;
    double socialPeak = 2250.0;
    double periodMinutes = 20.0;
    /** Profiling sweep: service rate and simulated minutes per cell. */
    double profilingRate = 2000.0;
    int profilingMinutesPerCell = 1;
    // Faults and resilience.
    double azEventsPerMinute = 1.0;
    double azEventMs = 20000.0;
    /** Service-time multiplier on the struck AZ's hosts. */
    double azSlowdownFactor = 1.5;
    double crashesPerMinute = 1.0;
    double callFailureProbability = 0.03;
    int maxRetries = 1;
    double timeoutMs = 1000.0;
    double hedgeDelayMs = 150.0;
    double scrapeDropProbability = 0.2;
    double scrapeDelayProbability = 0.2;

    bool operator==(const DeathstarKnobs &) const = default;
};

struct DeathstarInputs
{
    DeathstarKnobs knobs;
    /** Per-service rate series, Hotel Reservation's four services first. */
    std::vector<std::vector<double>> rates;
    std::uint64_t simSeed = 0;
    std::uint64_t faultSeed = 0;
    std::uint64_t azSeed = 0;
    std::uint64_t telemetryFaultSeed = 0;
};

DeathstarInputs deathstarInputs(std::uint64_t seed);
RunResult runDeathstarChaos(const RunArgs &args, Tracer &tracer);

// --- taobao_sharded ----------------------------------------------------

struct TaobaoKnobs
{
    int groups = 100;
    int servicesPerGroup = 5;
    int hostCount = 1200;
    int minutes = 5;
    double slaMs = 0.3;
    double rateLow = 250.0;
    double rateHigh = 350.0;
    int containersPerMicroservice = 2;
    /** The only fault: a transient call failure rate with no retries,
     *  so request_failed_pct is never 0. */
    double callFailureProbability = 0.001;

    bool operator==(const TaobaoKnobs &) const = default;
};

struct TaobaoInputs
{
    TaobaoKnobs knobs;
    /** Constant arrival rate per service (requests/minute). */
    std::vector<double> rates;
    std::uint64_t simSeed = 0;
    std::uint64_t faultSeed = 0;
};

TaobaoInputs taobaoInputs(std::uint64_t seed);
RunResult runTaobaoSharded(const RunArgs &args, Tracer &tracer);

// --- plan_scale ----------------------------------------------------------

struct PlanKnobs
{
    int microservices = 2000;
    int services = 200;
    int minGraphSize = 30;
    int maxGraphSize = 70;
    int hostCount = 5000;
    /** Trace minutes replayed per pass; one decision per minute. */
    int minutes = 100;
    double troughFraction = 0.3;
    double burstProbability = 0.05;
    double headroom = 1.1;
    /** The population is a fixed fixture, like taobao_sharded's: a
     *  seeded trace would move plan cost and container counts by ~15%
     *  between seeds, more than any bound could absorb. */
    std::uint64_t traceSeed = 29;
    double itfCpu = 0.3;
    double itfMem = 0.3;
    int popGroupSize = 64;

    bool operator==(const PlanKnobs &) const = default;
};

struct PlanInputs
{
    PlanKnobs knobs;
    std::uint64_t rateSeed = 0;
    std::uint64_t hostSeed = 0;
};

PlanInputs planInputs(std::uint64_t seed);
/** The trace population a plan_scale run builds. */
erms::SynthTraceConfig planTraceConfig(const PlanInputs &in);
RunResult runPlanScale(const RunArgs &args, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
