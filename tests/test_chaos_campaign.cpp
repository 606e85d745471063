/**
 * @file
 * Chaos-campaign suite (docs/chaos_campaigns.md): determinism and
 * distinctness of the correlated AZ-event schedule, the one-schedule
 * correlation contract between the data and telemetry fault planes,
 * per-series corruption semantics (only the targeted service's counter
 * series lie), the FaultyTelemetryView cache-idempotence regression,
 * campaign run determinism, archive -> replay byte-identity, strict
 * archive parsing, and the clean-stream equivalence of guarded
 * baseline controllers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/telemetry_fault.hpp"
#include "sim/simulation.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"

namespace erms {
namespace {

using telemetry::SeriesSnapshot;
using telemetry::SimMonitor;
using telemetry::TelemetrySnapshot;

constexpr SimTime kSecondUs = 1000ULL * 1000ULL;

/** Bit-pattern double equality (NaN-proof, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Bit-exact equality of two campaign trajectory rows. */
bool
sameMinute(const CampaignMinute &a, const CampaignMinute &b)
{
    return a.minute == b.minute && a.containers == b.containers &&
           sameBits(a.violationPct, b.violationPct) &&
           sameBits(a.worstP95Ms, b.worstP95Ms) &&
           a.guardMode == b.guardMode;
}

/** Monitor fixture: scrapes of a two-service cluster with counters,
 *  histograms, and host gauges all advancing. */
void
fillBusyMonitor(SimMonitor &monitor, int scrapes = 6)
{
    std::uint64_t spans = 0;
    for (int scrape = 0; scrape < scrapes; ++scrape) {
        for (int i = 0; i < 200 + 40 * scrape; ++i) {
            monitor.onRequestArrival(0);
            monitor.onRequestArrival(1);
            const bool sampled = ++spans % 10 == 0;
            monitor.onRequestComplete(0, 15.0 + scrape, false, sampled);
            monitor.onRequestComplete(1, 60.0 + scrape, false, sampled);
            monitor.onMicroserviceLatency(3, 8.0 + scrape, sampled);
        }
        monitor.recordHostUtil(0, 0.3 + 0.01 * scrape, 0.4);
        monitor.recordHostUtil(1, 0.5, 0.6);
        monitor.recordDeployment(3, 10 + scrape, 2, 8);
        monitor.takeSnapshot(static_cast<SimTime>(scrape) * 30 *
                             kSecondUs);
    }
}

/** Is this series a counter of the given service (the corruptor's
 *  targeting rule)? */
bool
isServiceCounter(const SeriesSnapshot &s, ServiceId service)
{
    if (s.kind != telemetry::MetricKind::Counter)
        return false;
    const std::string target = std::to_string(service);
    for (const auto &[key, value] : s.labels)
        if (key == "service")
            return value == target;
    return false;
}

/**
 * A shrunk battery arm for fast in-suite runs: same fault planes and
 * corruption as the named intensity, smaller population and horizon.
 * runCampaign is a pure function of the config, so every contract the
 * suite pins on the quick arm holds verbatim for the full-size one.
 */
CampaignConfig
quickArm(const std::string &intensity, const std::string &controller,
         bool guarded)
{
    CampaignConfig config = makeCampaignArm(intensity, controller, guarded);
    config.horizonMinutes = 6;
    config.hostCount = 10;
    config.trace.microserviceCount = 24;
    config.trace.serviceCount = 2;
    config.trace.workloadLow = 30000.0;
    config.trace.workloadHigh = 40000.0;
    return config;
}

// ---------------------------------------------------------------------
// Correlated AZ-event schedule
// ---------------------------------------------------------------------

TEST(CampaignAzSchedule, DeterministicAndDistinctOver20Seeds)
{
    const SimTime horizon = 10 * kMinuteUs;
    std::set<std::vector<SimTime>> distinct;
    for (std::uint64_t i = 0; i < 20; ++i) {
        AzEventConfig config;
        config.seed = deriveRunSeed(0xa25e, i);
        config.eventsPerMinute = 0.7;
        config.eventDurationMs = 100000.0;
        config.scrapeDropProbability = 0.8;

        const std::vector<AzEvent> a = buildAzEventSchedule(config, horizon);
        const std::vector<AzEvent> b = buildAzEventSchedule(config, horizon);
        ASSERT_EQ(a.size(), b.size());
        std::vector<SimTime> starts;
        for (std::size_t e = 0; e < a.size(); ++e) {
            EXPECT_EQ(a[e].start, b[e].start);
            EXPECT_EQ(a[e].end, b[e].end);
            EXPECT_EQ(a[e].az, b[e].az);
            EXPECT_LT(a[e].start, horizon);
            EXPECT_GT(a[e].end, a[e].start);
            EXPECT_GE(a[e].az, 0);
            EXPECT_LT(a[e].az, config.azCount);
            starts.push_back(a[e].start);
        }
        distinct.insert(starts);
    }
    EXPECT_GT(distinct.size(), 15u);
}

TEST(CampaignAzSchedule, BothFaultPlanesShareOneSchedule)
{
    // One AzEventConfig assigned verbatim to both planes yields the
    // same (start, end, host) windows on each — host stragglers on the
    // data plane, gauge blackouts on the telemetry plane — even though
    // the two planes use unrelated plane seeds.
    const int hosts = 12;
    const SimTime horizon = 8 * kMinuteUs;
    AzEventConfig az;
    az.seed = deriveRunSeed(0xa25e, 3);
    az.eventsPerMinute = 0.8;
    az.eventDurationMs = 90000.0;
    az.scrapeDropProbability = 0.5;

    FaultConfig data;
    data.seed = 111; // unrelated plane seeds on purpose
    data.azEvents = az;
    TelemetryFaultConfig scrape;
    scrape.seed = 222;
    scrape.azEvents = az;

    const FaultSchedule data_schedule =
        buildFaultSchedule(data, hosts, horizon);
    const TelemetryFaultSchedule scrape_schedule =
        buildTelemetryFaultSchedule(scrape, hosts, horizon);

    const std::vector<AzEvent> events = buildAzEventSchedule(az, horizon);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(scrape_schedule.azEvents.size(), events.size());

    using Window = std::tuple<SimTime, SimTime, HostId>;
    std::set<Window> expected;
    for (const AzEvent &event : events)
        for (HostId host = 0; host < hosts; ++host)
            if (azOfHost(host, az.azCount) == event.az)
                expected.insert({event.start, event.end, host});

    std::set<Window> data_windows;
    for (const SlowdownWindow &w : data_schedule.slowdowns)
        data_windows.insert({w.start, w.end, w.host});
    std::set<Window> scrape_windows;
    for (const BlackoutWindow &w : scrape_schedule.blackouts)
        scrape_windows.insert({w.start, w.end, w.host});

    EXPECT_EQ(data_windows, expected);
    EXPECT_EQ(scrape_windows, expected);
}

// ---------------------------------------------------------------------
// Per-series corruption
// ---------------------------------------------------------------------

TEST(CampaignCorruption, OnlyTargetServiceCounterSeriesLie)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor);
    const std::vector<TelemetrySnapshot> &honest = monitor.snapshots();
    ASSERT_FALSE(honest.empty());

    // The fixture must actually contain target and bystander counters,
    // or the test would pass vacuously.
    std::size_t targeted = 0, bystanders = 0;
    for (const SeriesSnapshot &s : honest.back().expand()) {
        if (isServiceCounter(s, 0))
            ++targeted;
        else
            ++bystanders;
    }
    ASSERT_GT(targeted, 0u);
    ASSERT_GT(bystanders, 0u);

    for (const auto mode : {SeriesCorruptionConfig::Mode::Scaled,
                            SeriesCorruptionConfig::Mode::Frozen,
                            SeriesCorruptionConfig::Mode::Negated}) {
        SeriesCorruptionConfig config;
        config.mode = mode;
        config.service = 0;
        config.scale = 0.5;
        const SeriesCorruptor corruptor(config);
        const std::vector<TelemetrySnapshot> lying =
            corruptor.corrupt(honest);
        ASSERT_EQ(lying.size(), honest.size());

        for (std::size_t i = 0; i < honest.size(); ++i) {
            ASSERT_EQ(lying[i].size(), honest[i].size());
            EXPECT_EQ(lying[i].at, honest[i].at);
            for (std::size_t s = 0; s < honest[i].size(); ++s) {
                const SeriesSnapshot truth = honest[i].series(s);
                const SeriesSnapshot seen = lying[i].series(s);
                if (!isServiceCounter(truth, 0)) {
                    // Bystanders — every other series of every other
                    // service — stay bit-identical.
                    EXPECT_TRUE(seen == truth);
                    continue;
                }
                const std::uint64_t anchor =
                    honest.front().series(s).counterValue;
                switch (mode) {
                case SeriesCorruptionConfig::Mode::Scaled:
                    EXPECT_EQ(seen.counterValue,
                              static_cast<std::uint64_t>(
                                  static_cast<double>(truth.counterValue) *
                                  0.5));
                    break;
                case SeriesCorruptionConfig::Mode::Frozen:
                    EXPECT_EQ(seen.counterValue, anchor);
                    break;
                case SeriesCorruptionConfig::Mode::Negated: {
                    const std::uint64_t progress =
                        truth.counterValue - anchor;
                    EXPECT_EQ(seen.counterValue,
                              anchor > progress ? anchor - progress : 0u);
                    break;
                }
                case SeriesCorruptionConfig::Mode::None:
                    break;
                }
            }
        }
    }

    // Mode::None passes the stream through untouched.
    const SeriesCorruptor none{SeriesCorruptionConfig{}};
    const std::vector<TelemetrySnapshot> passthrough =
        none.corrupt(honest);
    ASSERT_EQ(passthrough.size(), honest.size());
    for (std::size_t i = 0; i < honest.size(); ++i)
        EXPECT_TRUE(passthrough[i] == honest[i]);
}

// ---------------------------------------------------------------------
// FaultyTelemetryView cache idempotence (regression)
// ---------------------------------------------------------------------

TEST(CampaignFaultyViewCache, IdempotentAndQueryPatternIndependent)
{
    // The perturbed-snapshot cache is keyed on the monitor's scrape
    // count alone. Two views over the same monitor — one queried at
    // every intermediate scrape generation, one never queried until
    // the end — must expose bit-identical perturbed histories, and
    // re-querying the same generation must return identical bits.
    TelemetryFaultConfig faults;
    faults.seed = deriveRunSeed(0x0b5e, 9);
    faults.scrapeDropProbability = 0.3;
    faults.scrapeDelayProbability = 0.3;
    faults.counterDropProbability = 0.25;
    faults.outlierProbability = 0.25;
    faults.blackoutsPerMinute = 2.0;
    SeriesCorruptionConfig corruption;
    corruption.mode = SeriesCorruptionConfig::Mode::Frozen;
    corruption.service = 1;

    SimMonitor monitor;
    const FaultyTelemetryView chatty(monitor, faults, 4, 10 * kMinuteUs,
                                     corruption);
    const FaultyTelemetryView quiet(monitor, faults, 4, 10 * kMinuteUs,
                                    corruption);

    for (int scrape = 1; scrape <= 8; ++scrape) {
        fillBusyMonitor(monitor, 1);
        // Hammer the chatty view at every generation — twice, so the
        // second query replays the cached generation.
        const double rate_once = chatty.observedRate(0);
        const double rate_twice = chatty.observedRate(0);
        EXPECT_TRUE(sameBits(rate_once, rate_twice));
        chatty.serviceP95Ms(1);
        chatty.microserviceTailMs(3);
        chatty.stalenessMs(static_cast<SimTime>(scrape) * kMinuteUs);
    }

    const std::vector<TelemetrySnapshot> &warm = chatty.perturbedHistory();
    const std::vector<TelemetrySnapshot> &cold = quiet.perturbedHistory();
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        EXPECT_TRUE(warm[i] == cold[i]) << "scrape " << i;

    // Idempotence at the final generation as well.
    EXPECT_TRUE(chatty.perturbedHistory() == chatty.perturbedHistory());
}

/** One scrape of a four-host, two-service cluster at (scrape + 1) × 30 s:
 *  counters, histograms, deployment and host gauges all advance. */
void
scrapeFourHostCluster(SimMonitor &monitor, int scrape)
{
    for (int i = 0; i < 50 + 10 * scrape; ++i) {
        for (ServiceId service : {0u, 1u}) {
            monitor.onRequestArrival(service);
            monitor.onRequestComplete(service, 10.0 + 7.0 * service + scrape,
                                      false, i % 4 == 0);
        }
        monitor.onMicroserviceLatency(3, 5.0 + scrape, i % 4 == 0);
    }
    for (HostId host = 0; host < 4; ++host)
        monitor.recordHostUtil(host, 0.2 + 0.05 * host + 0.01 * scrape,
                               0.4);
    monitor.recordDeployment(3, 4 + scrape % 3, 1, 2);
    monitor.takeSnapshot(static_cast<SimTime>(scrape + 1) * 30 * kSecondUs);
}

TEST(CampaignFaultyViewCache, IncrementalMatchesWholeStreamReference)
{
    // The view perturbs each true scrape once and holds delayed ones
    // aside until the newest scrape reaches them. At every generation,
    // queried at each scrape or only now and then, its history must be
    // the whole-stream reference corrupt(perturb(scrapes so far)).
    constexpr int kScrapes = 16;
    constexpr int kHosts = 4;
    constexpr double kIntervalMs = 30000.0;
    const SimTime horizon = 10 * kMinuteUs;
    std::size_t dropped = 0, late = 0, checked = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(deriveRunSeed(0x1ca4e, seed));
        TelemetryFaultConfig faults;
        faults.seed = rng.next();
        faults.scrapeDropProbability = 0.3 * rng.uniform();
        faults.scrapeDelayProbability = 0.2 + 0.4 * rng.uniform();
        // 1-3 scrape intervals: a delayed scrape surfaces behind newer
        // ones.
        faults.scrapeDelayMs = kIntervalMs * (1.0 + 2.0 * rng.uniform());
        faults.blackoutsPerMinute = 2.0 * rng.uniform();
        faults.blackoutDurationMs = 20000.0 + 60000.0 * rng.uniform();
        faults.spanLossProbability = 0.5 * rng.uniform();
        faults.outlierProbability = 0.3 * rng.uniform();
        faults.counterDropProbability = 0.3 * rng.uniform();
        faults.clockJitterMs = 20000.0 * rng.uniform();
        if (seed % 2 == 0) {
            faults.azEvents.seed = rng.next();
            faults.azEvents.eventsPerMinute = 0.5 + rng.uniform();
            faults.azEvents.eventDurationMs = 60000.0;
            faults.azEvents.azCount = 2;
            faults.azEvents.scrapeDropProbability = 0.4 * rng.uniform();
            faults.azEvents.scrapeDelayProbability =
                0.3 + 0.5 * rng.uniform();
            faults.azEvents.scrapeDelayMs =
                kIntervalMs * (1.0 + 2.0 * rng.uniform());
        }
        for (const auto mode : {SeriesCorruptionConfig::Mode::None,
                                SeriesCorruptionConfig::Mode::Scaled,
                                SeriesCorruptionConfig::Mode::Frozen,
                                SeriesCorruptionConfig::Mode::Negated}) {
            SeriesCorruptionConfig corruption;
            corruption.mode = mode;
            corruption.service = static_cast<ServiceId>(seed % 2);
            SimMonitor monitor;
            const FaultyTelemetryView every(monitor, faults, kHosts, horizon,
                                            corruption);
            const FaultyTelemetryView skipping(monitor, faults, kHosts,
                                               horizon, corruption);
            for (int scrape = 0; scrape < kScrapes; ++scrape) {
                scrapeFourHostCluster(monitor, scrape);
                const std::vector<TelemetrySnapshot> reference =
                    every.corruptor().corrupt(
                        every.injector().perturb(monitor.snapshots()));
                EXPECT_TRUE(every.perturbedHistory() == reference)
                    << "seed " << seed << " scrape " << scrape;
                if ((scrape + static_cast<int>(seed)) % 3 == 0 ||
                    scrape == kScrapes - 1) {
                    EXPECT_TRUE(skipping.perturbedHistory() == reference)
                        << "seed " << seed << " scrape " << scrape;
                    ++checked;
                }
            }
            if (mode != SeriesCorruptionConfig::Mode::None)
                continue;
            // The configs must hit drops and late surfacing, or the
            // comparison would pass vacuously.
            const auto &snaps = monitor.snapshots();
            PerturbationCache cache;
            for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
                const PerturbedScrape p =
                    every.injector().perturbScrape(i, snaps[i], cache);
                dropped += p.dropped;
                late += !p.dropped && p.visibleFrom > snaps[i + 1].at &&
                        p.visibleFrom <= snaps.back().at;
            }
        }
    }
    EXPECT_GT(dropped, 10u);
    EXPECT_GT(late, 10u);
    EXPECT_GT(checked, 20u * 4u * 5u);
}

// ---------------------------------------------------------------------
// Battery arms
// ---------------------------------------------------------------------

TEST(CampaignArms, SeedsDeriveFromIntensityAlone)
{
    // Every controller arm of one intensity faces the identical
    // workload and fault schedule: seeds never depend on the
    // controller name or the guarded flag.
    const CampaignConfig a = makeCampaignArm("med", "erms", false);
    const CampaignConfig b = makeCampaignArm("med", "rhythm", true);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.faults.seed, b.faults.seed);
    EXPECT_EQ(a.telemetryFaults.seed, b.telemetryFaults.seed);
    EXPECT_EQ(a.faults.azEvents.seed, b.faults.azEvents.seed);
    EXPECT_EQ(a.trace.seed, b.trace.seed);
    EXPECT_EQ(b.controller, "rhythm");
    EXPECT_TRUE(b.guarded);

    // The correlation contract: one AzEventConfig on both planes.
    EXPECT_EQ(a.faults.azEvents.seed, a.telemetryFaults.azEvents.seed);
    EXPECT_TRUE(a.faults.azEvents.active());

    const CampaignConfig high = makeCampaignArm("high", "erms", false);
    EXPECT_NE(high.seed, a.seed);
    EXPECT_NE(high.faults.azEvents.seed, a.faults.azEvents.seed);

    const CampaignConfig off = makeCampaignArm("off", "grandslam", true);
    EXPECT_FALSE(off.faults.anyFaults());
    EXPECT_FALSE(off.telemetryFaults.anyFaults());
    EXPECT_FALSE(off.corruption.active());

    EXPECT_THROW(makeCampaignArm("extreme", "erms", false), ErmsError);
}

// ---------------------------------------------------------------------
// Campaign determinism and archive -> replay
// ---------------------------------------------------------------------

TEST(CampaignRun, DeterministicAcrossReruns)
{
    const CampaignConfig config = quickArm("med", "erms", true);
    const CampaignResult a = runCampaign(config);
    const CampaignResult b = runCampaign(config);

    ASSERT_EQ(a.minutes.size(), b.minutes.size());
    ASSERT_EQ(a.minutes.size(),
              static_cast<std::size_t>(config.horizonMinutes));
    for (std::size_t i = 0; i < a.minutes.size(); ++i)
        EXPECT_TRUE(sameMinute(a.minutes[i], b.minutes[i]))
            << "minute " << i;
    EXPECT_TRUE(sameBits(a.violationPct, b.violationPct));
    EXPECT_TRUE(sameBits(a.containerMinutes, b.containerMinutes));
    ASSERT_EQ(a.perturbedHistory.size(), b.perturbedHistory.size());
    for (std::size_t i = 0; i < a.perturbedHistory.size(); ++i)
        EXPECT_TRUE(a.perturbedHistory[i] == b.perturbedHistory[i]);
}

TEST(CampaignArchive, ReplayIsByteIdenticalFromTheArtifactAlone)
{
    const CampaignConfig config = quickArm("med", "erms", true);
    const CampaignResult result = runCampaign(config);
    const std::string archive = archiveCampaign(config, result);

    const CampaignReplay replay = replayCampaign(archive);
    EXPECT_EQ(replay.config.controller, "erms");
    EXPECT_TRUE(replay.config.guarded);
    EXPECT_EQ(replay.config.seed, config.seed);
    EXPECT_EQ(replay.config.corruption.mode, config.corruption.mode);
    ASSERT_EQ(replay.archivedMinutes.size(), result.minutes.size());
    EXPECT_EQ(replay.archivedScrapes, result.perturbedHistory.size());
    EXPECT_TRUE(replay.minutesIdentical);
    EXPECT_TRUE(replay.historyIdentical);
    EXPECT_TRUE(replay.identical());
}

TEST(CampaignArchive, ReplayCoversHighIntensityNaiveBaselines)
{
    // "high" sets every telemetry-fault knob the archive serializes
    // (counter drops, outliers, blackouts, Frozen corruption), so this
    // round trip exercises the full config schema on a naive baseline.
    const CampaignConfig config = quickArm("high", "grandslam", false);
    const CampaignResult result = runCampaign(config);
    const CampaignReplay replay = replayCampaign(
        archiveCampaign(config, result));
    EXPECT_EQ(replay.config.controller, "grandslam");
    EXPECT_FALSE(replay.config.guarded);
    EXPECT_EQ(replay.config.telemetryFaults.blackoutsPerMinute,
              config.telemetryFaults.blackoutsPerMinute);
    EXPECT_TRUE(replay.identical());
}

/** `archive` with the value token of the first `key` replaced. */
std::string
withValue(std::string archive, const std::string &key,
          const std::string &value)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = archive.find(needle);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no key " << key;
        return archive;
    }
    const std::size_t start = at + needle.size();
    const std::size_t end = archive.find_first_of(",}\n]", start);
    return archive.replace(start, end - start, value);
}

TEST(CampaignArchive, MalformedDocumentThrows)
{
    EXPECT_THROW(replayCampaign("not json at all"), ErmsError);
    EXPECT_THROW(replayCampaign("{\"campaign\": {}}"), ErmsError);

    // Number mutants of a real archive: each must throw naming its
    // field before anything runs, instead of quietly replaying a
    // different (or, when truncated to the original value, the same)
    // experiment.
    const CampaignConfig config = quickArm("med", "erms", true);
    CampaignResult result;
    result.minutes.push_back(CampaignMinute{.minute = 0,
                                            .containers = 12,
                                            .violationPct = 1.5,
                                            .worstP95Ms = 80.25,
                                            .guardMode = 0});
    const std::string archive = archiveCampaign(config, result);
    EXPECT_NO_THROW(campaignConfigFromArchive(archive));

    const std::pair<const char *, const char *> mutants[] = {
        {"clock_skew_ms", "0garbage"},      // trailing bytes
        {"az_count", "4.9"},                // fraction in an integer
        {"seed", "-7"},                     // sign on an unsigned
        {"seed", "+7"},
        {"horizon_minutes", "99999999999"}, // beyond int
        {"trough_fraction", "1e999"},       // beyond double
        {"trough_fraction", ""},            // empty token
        {"warmup_minutes", "0x1"},          // not decimal
        {"violation_pct", "1.5x"},          // in a minute row
        // Parse, then rejected by runCampaign before anything runs
        // (these used to trip internal assertions).
        {"horizon_minutes", "0"},
        {"warmup_minutes", "-1"},
        {"host_count", "0"},
    };
    for (const auto &[key, value] : mutants) {
        try {
            replayCampaign(withValue(archive, key, value));
            ADD_FAILURE() << key << ": " << value << " replayed";
        } catch (const ErmsError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

/**
 * Field-table visitor that draws every field at random: full-range
 * integers, doubles from random bit patterns plus the special values
 * (NaN only as the quiet NaN the format spells), strings over every
 * byte, labels over their own alphabet, vectors of 0-3 elements.
 */
class RandomFields
{
  public:
    explicit RandomFields(std::uint64_t seed) : rng_(seed) {}

    template <class T>
    void
    field(const char *, T &value)
    {
        draw(value);
    }

    template <class E, std::size_t N>
    void
    field(const char *, E &value, const json::Name<E> (&names)[N])
    {
        value = names[pick(N)].value;
    }

    template <class T, class Encode, class Decode>
    void
    field(const char *, T &value, Encode, Decode)
    {
        draw(value);
    }

    void constant(const char *, const char *) {}

    template <class Check>
    void check(const char *, Check) {}

  private:
    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    void draw(bool &value) { value = (rng_.next() & 1) != 0; }

    void
    draw(double &value)
    {
        const double special[] = {
            0.0,
            -0.0,
            std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::max(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN(),
        };
        if (pick(4) == 0) {
            value = special[pick(std::size(special))];
            return;
        }
        value = std::bit_cast<double>(rng_.next());
        if (std::isnan(value))
            value = std::numeric_limits<double>::quiet_NaN();
    }

    template <class T>
        requires std::is_integral_v<T>
    void
    draw(T &value)
    {
        value = static_cast<T>(rng_.next());
    }

    void
    draw(std::string &value)
    {
        value.resize(pick(6));
        for (char &c : value)
            c = static_cast<char>(rng_.next());
    }

    void
    draw(std::pair<std::string, std::string> &label)
    {
        static constexpr char kAlphabet[] = "abz_09";
        for (std::string *part : {&label.first, &label.second}) {
            part->resize(pick(4));
            for (char &c : *part)
                c = kAlphabet[pick(sizeof kAlphabet - 1)];
        }
    }

    template <class T>
    void
    draw(std::vector<T> &values)
    {
        values.resize(pick(4));
        for (T &value : values)
            draw(value);
    }

    template <class T>
    void
    draw(T &value)
    {
        describe(*this, value);
    }

    /** A scrape the reader accepts: random series, sorted by
     *  (name, labels) and de-duplicated, each histogram's ladder made
     *  strictly ascending and NaN-free with one bucket more. */
    void
    draw(TelemetrySnapshot &scrape)
    {
        SimTime at = 0;
        draw(at);
        std::vector<SeriesSnapshot> series;
        draw(series);
        const auto same_key = [](const SeriesSnapshot &a,
                                 const SeriesSnapshot &b) {
            return !telemetry::seriesBefore(a, b);
        };
        std::sort(series.begin(), series.end(), telemetry::seriesBefore);
        series.erase(std::unique(series.begin(), series.end(), same_key),
                     series.end());
        for (SeriesSnapshot &s : series) {
            if (s.kind != telemetry::MetricKind::Histogram)
                continue;
            std::erase_if(s.boundaries, [](double b) { return std::isnan(b); });
            std::sort(s.boundaries.begin(), s.boundaries.end());
            s.boundaries.erase(
                std::unique(s.boundaries.begin(), s.boundaries.end()),
                s.boundaries.end());
            if (s.boundaries.empty())
                s.boundaries.push_back(1.0);
            const std::size_t buckets = s.bucketCounts.size();
            s.bucketCounts.resize(s.boundaries.size() + 1);
            for (std::size_t b = buckets; b < s.bucketCounts.size(); ++b)
                draw(s.bucketCounts[b]);
        }
        scrape = TelemetrySnapshot::fromSeries(at, std::move(series));
    }

    Rng rng_;
};

TEST(CampaignArchive, RandomArchivesRoundTripBitExact)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        CampaignArchive original;
        RandomFields random(deriveRunSeed(0xa7c4, seed));
        // Scrapes are drawn as the reader takes them (see
        // RandomFields::draw).
        describe(random, original);
        const std::string text =
            archiveCampaign(original.config, original.result);
        const CampaignArchive parsed = parseCampaignArchive(text);

        // The writer spells every double by its shortest round-trip
        // token, so equal text means every archived field came back
        // bit for bit; the checks below do not lean on the writer.
        EXPECT_EQ(archiveCampaign(parsed.config, parsed.result), text)
            << "seed " << seed;
        EXPECT_EQ(parsed.config.seed, original.config.seed);
        EXPECT_EQ(parsed.config.trace.seed, original.config.trace.seed);
        EXPECT_EQ(parsed.config.controller, original.config.controller);
        EXPECT_EQ(parsed.config.corruption.mode,
                  original.config.corruption.mode);
        EXPECT_TRUE(sameBits(parsed.config.troughFraction,
                             original.config.troughFraction));
        EXPECT_TRUE(sameBits(parsed.config.fallbackEscalationPerCycle,
                             original.config.fallbackEscalationPerCycle));
        EXPECT_TRUE(sameBits(parsed.config.tuner.fallbackEscalation.hi,
                             original.config.tuner.fallbackEscalation.hi));
        EXPECT_TRUE(sameBits(parsed.result.containerMinutes,
                             original.result.containerMinutes));
        ASSERT_EQ(parsed.result.minutes.size(),
                  original.result.minutes.size());
        for (std::size_t i = 0; i < parsed.result.minutes.size(); ++i)
            EXPECT_TRUE(sameMinute(parsed.result.minutes[i],
                                   original.result.minutes[i]));
        EXPECT_TRUE(parsed.result.perturbedHistory ==
                    original.result.perturbedHistory)
            << "seed " << seed;
    }
}

/** An archive of the quick med arm with a synthetic result: two rows,
 *  a summary and two busy-monitor scrapes (counters, gauges and
 *  histograms), i.e. every part of the schema without a campaign run. */
std::string
fuzzArchive()
{
    SimMonitor monitor;
    fillBusyMonitor(monitor, 2);
    CampaignResult result;
    result.minutes = {{0, 12, 1.5, 80.25, 0}, {1, 13, 0.0, 77.5, 2}};
    result.violationPct = 0.75;
    result.worstP95Ms = 80.25;
    result.containerMinutes = 25.0;
    result.perturbedHistory = monitor.snapshots();
    return archiveCampaign(quickArm("med", "erms", true), result);
}

/** Every object in `value`'s tree, depth first. */
void
collectObjects(json::Value &value, std::vector<json::Value *> &out)
{
    if (value.kind == json::Value::Kind::Object)
        out.push_back(&value);
    for (json::Value &item : value.items)
        collectObjects(item, out);
    for (auto &member : value.members)
        collectObjects(member.second, out);
}

/** Parse `mutant`: it must either throw ErmsError (false) or parse to
 *  an archive whose write -> parse -> write is a fixed point (true).
 *  Any other exception escapes and fails the test. */
bool
parsesToFixedPoint(const std::string &mutant)
{
    CampaignArchive parsed;
    try {
        parsed = parseCampaignArchive(mutant);
    } catch (const ErmsError &) {
        return false;
    }
    const std::string once = archiveCampaign(parsed.config, parsed.result);
    const CampaignArchive again = parseCampaignArchive(once);
    EXPECT_EQ(archiveCampaign(again.config, again.result), once);
    return true;
}

TEST(CampaignArchiveFuzz, ByteFlipsAndTruncationsThrowOrFixedPoint)
{
    const std::string archive = fuzzArchive();
    ASSERT_TRUE(parsesToFixedPoint(archive));
    const char replacements[] = {'"', '{', '}', '[', ']', ',', ':', '0',
                                 '9', '-', '.', 'e', 'x', ' ', '\\', '\n',
                                 '\0', '\x7f', '\xff'};
    std::size_t parsed = 0, mutants = 0;
    for (std::size_t i = 0; i < archive.size(); ++i) {
        std::string mutant = archive;
        mutant[i] = replacements[i % std::size(replacements)];
        if (mutant == archive)
            mutant[i] ^= 0x01;
        parsed += parsesToFixedPoint(mutant);
        ++mutants;
        if (i % 3 == 0) {
            parsed += parsesToFixedPoint(archive.substr(0, i));
            ++mutants;
        }
    }
    // Digit flips inside numbers and strings parse; structural damage
    // throws. Both sides must actually be exercised.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(mutants - parsed, mutants / 2);
}

TEST(CampaignArchive, UnsortedOrDuplicateScrapeSeriesThrowNamingThePath)
{
    const std::string archive = fuzzArchive();
    const auto mutated = [&](auto mutate) {
        json::Value doc = json::parse(archive);
        for (auto &[key, value] : doc.members)
            if (key == "scrapes")
                for (auto &[field, series] : value.items[1].members)
                    if (field == "series")
                        mutate(series.items);
        return json::write(doc);
    };
    const std::pair<std::string, const char *> cases[] = {
        {mutated([](auto &series) { std::swap(series[2], series[3]); }),
         "json: scrapes[1].series: series 3 "},
        {mutated([](auto &series) {
             series.insert(series.begin() + 1, series[0]);
         }),
         "json: scrapes[1].series: series 1 "},
    };
    for (const auto &[text, expected] : cases) {
        std::string message;
        try {
            parseCampaignArchive(text);
        } catch (const ErmsError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find(expected), std::string::npos)
            << expected << " -> '" << message << "'";
    }
}

TEST(CampaignArchiveFuzz, KeyMutationsThrowAndReordersParseIdentically)
{
    const std::string archive = fuzzArchive();
    const json::Value tree = json::parse(archive);
    std::vector<json::Value *> objects;
    json::Value probe = tree;
    collectObjects(probe, objects);
    ASSERT_GT(objects.size(), 20u);

    const auto mutated = [&](std::size_t object, auto mutate) {
        json::Value copy = tree;
        std::vector<json::Value *> nodes;
        collectObjects(copy, nodes);
        mutate(nodes[object]->members);
        return json::write(copy);
    };
    using Members = std::vector<std::pair<std::string, json::Value>>;
    for (std::size_t o = 0; o < objects.size(); ++o) {
        // Key order is free: a reversed object reads back to the
        // identical archive.
        const std::string reversed = mutated(o, [](Members &m) {
            std::reverse(m.begin(), m.end());
        });
        const CampaignArchive back = parseCampaignArchive(reversed);
        EXPECT_EQ(archiveCampaign(back.config, back.result), archive)
            << "object " << o;

        EXPECT_THROW(parseCampaignArchive(mutated(o, [](Members &m) {
                         m.emplace_back("unknown_key", json::Value{});
                     })),
                     ErmsError)
            << "object " << o;
        const std::size_t size = objects[o]->members.size();
        for (std::size_t k = 0; k < size; ++k) {
            const std::string key = objects[o]->members[k].first;
            EXPECT_THROW(parseCampaignArchive(mutated(o, [k](Members &m) {
                             m.erase(m.begin() + static_cast<long>(k));
                         })),
                         ErmsError)
                << "dropped " << key;
            EXPECT_THROW(parseCampaignArchive(mutated(o, [k](Members &m) {
                             m.insert(m.begin() + static_cast<long>(k), m[k]);
                         })),
                         ErmsError)
                << "duplicated " << key;
            EXPECT_THROW(parseCampaignArchive(mutated(o, [k](Members &m) {
                             m[k].first += "_x";
                         })),
                         ErmsError)
                << "renamed " << key;
        }
    }
    EXPECT_THROW(parseCampaignArchive(archive + "{}"), ErmsError);
}

/** Message of the ErmsError parseCampaignArchive throws ("" if none). */
std::string
parseError(const std::string &archive)
{
    try {
        parseCampaignArchive(archive);
    } catch (const ErmsError &e) {
        return e.what();
    }
    return "";
}

/** `archive` with campaign.<group>'s members edited by `edit`. */
template <class Edit>
std::string
withGroup(const std::string &archive, const std::string &group, Edit edit)
{
    json::Value tree = json::parse(archive);
    for (auto &[key, campaign] : tree.members) {
        if (key != "campaign")
            continue;
        if (group.empty()) {
            edit(campaign.members);
            continue;
        }
        for (auto &[name, value] : campaign.members)
            if (name == group)
                edit(value.members);
    }
    return json::write(tree);
}

// One regression per defect of the previous hand-rolled parser.

TEST(CampaignArchiveRegression, ReorderedMembersReadTheirOwnValues)
{
    // With az_events first, the first textual "scrape_drop_probability"
    // in telemetry_faults used to be the AZ value (0.8), not 0.2.
    const std::string archive = fuzzArchive();
    const std::string moved =
        withGroup(archive, "telemetry_faults", [](auto &members) {
            std::rotate(members.begin(), members.end() - 1, members.end());
        });
    ASSERT_NE(moved.find("\"telemetry_faults\": {\n      \"az_events\""),
              std::string::npos);
    const CampaignArchive parsed = parseCampaignArchive(moved);
    EXPECT_EQ(parsed.config.telemetryFaults.scrapeDropProbability, 0.2);
    EXPECT_EQ(parsed.config.telemetryFaults.azEvents.scrapeDropProbability,
              0.8);
    EXPECT_EQ(archiveCampaign(parsed.config, parsed.result), archive);
}

TEST(CampaignArchiveRegression, DroppedKeyThrowsInsteadOfReadingANestedOne)
{
    // The AZ group's own scrape_drop_probability used to stand in.
    const std::string archive =
        withGroup(fuzzArchive(), "telemetry_faults", [](auto &members) {
            std::erase_if(members, [](const auto &m) {
                return m.first == "scrape_drop_probability";
            });
        });
    EXPECT_NE(parseError(archive).find(
                  "campaign.telemetry_faults.scrape_drop_probability: "
                  "missing key"),
              std::string::npos)
        << parseError(archive);
}

TEST(CampaignArchiveRegression, DuplicateKeyThrowsInsteadOfFirstWins)
{
    // The first of two horizon_minutes used to win silently.
    const std::string archive =
        withGroup(fuzzArchive(), "", [](auto &members) {
            auto second = members[1];
            second.second.text = "99";
            members.insert(members.begin() + 2, second);
        });
    ASSERT_NE(archive.find("\"horizon_minutes\": 6,\n"
                           "    \"horizon_minutes\": 99"),
              std::string::npos);
    EXPECT_NE(parseError(archive).find(
                  "campaign.horizon_minutes: duplicate key"),
              std::string::npos)
        << parseError(archive);
}

TEST(CampaignArchiveRegression, HistogramShortOfABucketThrowsNamingThePath)
{
    // A histogram one bucket short of its ladder used to load, and every
    // quantile read from it came out as 0.
    json::Value doc = json::parse(fuzzArchive());
    std::string path;
    for (auto &[key, value] : doc.members) {
        if (key != "scrapes")
            continue;
        for (auto &[field, series] : value.items[0].members) {
            if (field != "series")
                continue;
            for (std::size_t i = 0; i < series.items.size() && path.empty();
                 ++i) {
                for (auto &[name, member] : series.items[i].members) {
                    if (name == "buckets") {
                        member.items.pop_back();
                        path = "json: scrapes[0].series[" +
                               std::to_string(i) + "].buckets: ";
                    }
                }
            }
        }
    }
    ASSERT_FALSE(path.empty());
    const std::string archive = json::write(doc);
    EXPECT_NE(parseError(archive).find(path), std::string::npos)
        << path << " -> '" << parseError(archive) << "'";
}

TEST(CampaignArchiveRegression, TrailingBytesThrow)
{
    EXPECT_NE(parseError(fuzzArchive() + "x").find(
                  "document: trailing bytes"),
              std::string::npos);
}

/** archiveCampaign(quickArm("high", "grandslam", false), {}) as the
 *  previous hand-rolled writer produced it, captured verbatim: archives
 *  written before the JSON module must still replay. */
constexpr const char *kLegacyArchive = R"({
"campaign": {
  "seed": 14583892340899567853,
  "horizon_minutes": 6,
  "warmup_minutes": 1,
  "host_count": 10,
  "trough_fraction": 0.29999999999999999,
  "burst_probability": 0.050000000000000003,
  "controller": "grandslam",
  "guarded": false,
  "trace": {"microservice_count": 24, "service_count": 2, "min_graph_size": 4, "max_graph_size": 8, "popularity_skew": 0.75, "parallel_probability": 0.40000000000000002, "sla_low_ms": 50, "sla_high_ms": 200, "sla_relative_to_knee": true, "sla_knee_low": 1.3, "sla_knee_high": 1.8, "workload_low": 30000, "workload_high": 40000, "seed": 31438},
  "faults": {"seed": 15179652030011655409, "crashes_per_minute": 0, "restart_delay_ms": 3000, "slowdowns_per_minute": 0, "slowdown_duration_ms": 15000, "slowdown_factor": 2, "slowdown_cpu_inflate": 0.25, "call_failure_probability": 0, "az_events": {"seed": 16121643258021553766, "events_per_minute": 0.69999999999999996, "event_duration_ms": 100000, "az_count": 4, "scrape_drop_probability": 0.84999999999999998, "scrape_delay_probability": 0.59999999999999998, "scrape_delay_ms": 60000}},
  "telemetry_faults": {"seed": 10379171726681594138, "scrape_drop_probability": 0.34999999999999998, "scrape_delay_probability": 0.34999999999999998, "scrape_delay_ms": 45000, "blackouts_per_minute": 1, "blackout_duration_ms": 60000, "span_loss_probability": 0, "outlier_probability": 0.25, "outlier_fraction": 0.14999999999999999, "counter_drop_probability": 0.25, "counter_drop_floor": 0.25, "clock_skew_ms": 0, "clock_jitter_ms": 0, "az_events": {"seed": 16121643258021553766, "events_per_minute": 0.69999999999999996, "event_duration_ms": 100000, "az_count": 4, "scrape_drop_probability": 0.84999999999999998, "scrape_delay_probability": 0.59999999999999998, "scrape_delay_ms": 60000}},
  "corruption": {"mode": "frozen", "service": 0, "scale": 0.5},
  "guard": {"max_staleness_ms": 90000, "max_rate_rpm": 10000000, "max_latency_ms": 60000, "max_interference_util": 4, "mad_gate_multiplier": 8, "relative_gate_factor": 3, "outlier_history": 8, "outlier_min_history": 5, "suspect_bad_cycles_to_fallback": 1, "recovery_clean_cycles": 2},
  "rails": {"fallback_over_provision_factor": -1, "fallback_escalation_per_cycle": -1},
  "self_tuned": false,
  "tuner": {"enabled": true, "cooldown_cycles": 3, "over_reject_cycles": 4, "missed_lie_cycles": 3, "stale_clean_cycles": 3, "residency_window": 6, "fallback_residency_high": 0.5, "gate_step": 1.25, "staleness_step": 1.25, "fallback_step": 0.25, "mad_gate_lo": 2, "mad_gate_hi": 32, "staleness_lo": 45000, "staleness_hi": 360000, "suspect_lo": 1, "suspect_hi": 4, "fallback_factor_lo": 1, "fallback_factor_hi": 4, "escalation_lo": 0.050000000000000003, "escalation_hi": 1.5}
},
"minutes": [
],
"summary": {"violation_pct": 0, "worst_p95_ms": 0, "container_minutes": 0},
"scrapes": [
]
}
)";

TEST(CampaignArchive, LegacyArchiveParsesToTheSameConfig)
{
    const CampaignConfig config = quickArm("high", "grandslam", false);
    const CampaignArchive parsed = parseCampaignArchive(kLegacyArchive);
    EXPECT_EQ(archiveCampaign(parsed.config, parsed.result),
              archiveCampaign(config, CampaignResult{}));
    EXPECT_TRUE(parsed.result.minutes.empty());
    EXPECT_TRUE(parsed.result.perturbedHistory.empty());
}

// ---------------------------------------------------------------------
// Guarded baselines: clean-stream equivalence
// ---------------------------------------------------------------------

struct BaselineRunResult
{
    std::uint64_t requestsCompleted = 0;
    std::vector<double> latencies;
    std::vector<int> containerTrajectory;
};

/** Smooth 4-minute scenario: honest scrapes, steady workload. Any
 *  guard intervention here would be a transparency bug. */
BaselineRunResult
runBaselineDynamic(const MicroserviceCatalog &catalog,
                   const Application &app, const std::string &name,
                   bool guarded, std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    auto monitor = std::make_shared<SimMonitor>();
    sim.setMonitor(monitor.get());
    auto base =
        std::make_shared<telemetry::ScrapedTelemetryView>(*monitor);

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = 300.0;
        svc.rate = 6000.0;
        sim.addService(svc);
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = 300.0;
        spec.workload = 6000.0;
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }
    const ErmsController planner(catalog, ErmsConfig{});
    sim.applyPlan(planner.plan(services, Interference{0.2, 0.2}));

    std::function<void(Simulation &, int)> scaling;
    if (guarded) {
        auto guard =
            std::make_shared<telemetry::GuardedTelemetryView>(base);
        scaling = makeGuardedController(
            makeControllerByName(name, catalog, services, guard), guard,
            managed);
    } else {
        scaling = makeControllerByName(name, catalog, services, base);
    }

    BaselineRunResult result;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        scaling(s, minute);
        int total = 0;
        for (MicroserviceId id : managed)
            total += s.containerCount(id);
        result.containerTrajectory.push_back(total);
    });
    sim.run();

    result.requestsCompleted = sim.metrics().requestsCompleted;
    for (const auto &graph : app.graphs) {
        auto it = sim.metrics().endToEndMs.find(graph.service());
        if (it == sim.metrics().endToEndMs.end())
            continue;
        result.latencies.insert(result.latencies.end(),
                                it->second.samples().begin(),
                                it->second.samples().end());
    }
    return result;
}

TEST(CampaignBaselineTransparency, GuardedMatchesNaiveOnCalendarEngine)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    for (const std::string name : {"grandslam", "rhythm", "firm"}) {
        const BaselineRunResult naive =
            runBaselineDynamic(catalog, app, name, false, 4242);
        const BaselineRunResult guarded =
            runBaselineDynamic(catalog, app, name, true, 4242);
        EXPECT_EQ(naive.requestsCompleted, guarded.requestsCompleted)
            << name;
        EXPECT_EQ(naive.containerTrajectory, guarded.containerTrajectory)
            << name;
        ASSERT_EQ(naive.latencies.size(), guarded.latencies.size())
            << name;
        for (std::size_t i = 0; i < naive.latencies.size(); ++i)
            ASSERT_TRUE(sameBits(naive.latencies[i], guarded.latencies[i]))
                << name << " sample " << i;
    }
}

} // namespace
} // namespace erms
