/**
 * @file
 * Degraded-telemetry chaos sweep (extension beyond the paper; see
 * docs/resilient_control.md): drive the telemetry-driven Erms dynamic
 * controller through a ramping hotel-reservation workload while the
 * observability path — not the data plane — degrades: dropped and
 * delayed scrapes, per-host metric blackouts, partial counter scrapes,
 * span loss, and corrupted latency outliers at increasing intensity.
 *
 * Two controller arms face identical perturbed scrape streams:
 *   naive   — consumes the faulty view directly (trusts every sample);
 *   guarded — the same controller behind GuardedTelemetryView +
 *             makeGuardedController (staleness/outlier gates,
 *             rate-limited SUSPECT scaling, FALLBACK hold).
 *
 * Shape to observe: with faults off the two arms are byte-identical
 * (the transparency contract). As intensity rises, the naive arm acts
 * on stale or corrupt observations — under-provisioning through the
 * ramp — while the guarded arm holds or over-provisions from its last
 * good state: strictly lower SLA-violation rates at a modest
 * container-minute premium.
 *
 * Every seed derives from the task index, so the table is byte-identical
 * for any ERMS_RUNNER_THREADS.
 *
 * After the classic table the bench runs the correlated chaos-campaign
 * battery (docs/chaos_campaigns.md): trace-driven diurnal populations
 * under correlated AZ events + per-series corruption, sweeping campaign
 * intensity x {naive, guarded} x {erms, grandslam, rhythm, firm} — all
 * four controllers behind the identical guardrail stack. The battery
 * writes its full per-minute trajectories to BENCH_chaos_campaign.json
 * (override the path with argv[1]) and finishes with an in-process
 * archive -> replay byte-identity check; the exit status reflects it.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/controllers.hpp"
#include "fault/campaign.hpp"
#include "fault/telemetry_fault.hpp"
#include "telemetry/guarded_view.hpp"

using namespace erms;
using namespace erms::bench;

namespace {

constexpr double kSla = 160.0;
constexpr int kHorizonMinutes = 10;

struct Intensity
{
    const char *name;
    TelemetryFaultConfig faults;
};

std::vector<Intensity>
makeIntensities()
{
    std::vector<Intensity> levels;
    levels.push_back({"off", {}});

    TelemetryFaultConfig low;
    low.scrapeDropProbability = 0.15;
    low.scrapeDelayProbability = 0.15;
    low.counterDropProbability = 0.10;
    low.outlierProbability = 0.10;
    low.spanLossProbability = 0.10;
    low.blackoutsPerMinute = 0.5;
    levels.push_back({"low", low});

    TelemetryFaultConfig med;
    med.scrapeDropProbability = 0.35;
    med.scrapeDelayProbability = 0.35;
    med.counterDropProbability = 0.30;
    med.outlierProbability = 0.30;
    med.spanLossProbability = 0.25;
    med.blackoutsPerMinute = 1.0;
    levels.push_back({"med", med});

    TelemetryFaultConfig high;
    high.scrapeDropProbability = 0.55;
    high.scrapeDelayProbability = 0.55;
    high.scrapeDelayMs = 60000.0;
    high.counterDropProbability = 0.50;
    high.outlierProbability = 0.50;
    high.spanLossProbability = 0.40;
    high.blackoutsPerMinute = 2.0;
    high.clockSkewMs = -15000.0;
    levels.push_back({"high", high});
    return levels;
}

struct ArmResult
{
    double violationPct = 0.0;
    double worstP95 = 0.0;
    double containerMinutes = 0.0;
    telemetry::GuardStats guard{};
    bool guarded = false;
};

ArmResult
runArm(const MicroserviceCatalog &catalog, const Application &app,
       const TelemetryFaultConfig &faults, bool guarded,
       std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = kHorizonMinutes;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);

    // The controllers only ever see the perturbed stream; with all
    // fault knobs zero FaultyTelemetryView is exactly the raw view.
    auto view = std::make_shared<FaultyTelemetryView>(
        monitor, faults, config.hostCount,
        static_cast<SimTime>(kHorizonMinutes) * kMinuteUs);

    // Ramping workload: 6k -> 17.7k requests/minute. A controller fed
    // stale or under-reported rates falls behind exactly here.
    std::vector<double> ramp;
    for (int m = 0; m < kHorizonMinutes; ++m)
        ramp.push_back(6000.0 + 1300.0 * m);

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = kSla;
        svc.rateSeries = ramp;
        sim.addService(svc);
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = kSla;
        spec.workload = ramp.front();
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }

    ErmsController controller(catalog, {});
    const GlobalPlan initial =
        controller.plan(services, Interference{0.2, 0.2});
    sim.applyPlan(initial);

    std::shared_ptr<telemetry::GuardedTelemetryView> guard;
    std::function<void(Simulation &, int)> scaling;
    if (guarded) {
        guard = std::make_shared<telemetry::GuardedTelemetryView>(view);
        scaling = makeGuardedController(
            controller.makeAutoscaler(services, guard), guard, managed);
    } else {
        scaling = controller.makeAutoscaler(services, view);
    }

    // Shared accounting: container-minutes integrate the deployed
    // footprint after each scaling decision (over-provision proxy).
    double container_minutes = 0.0;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        scaling(s, minute);
        for (MicroserviceId id : managed)
            container_minutes += s.containerCount(id);
    });
    sim.run();

    ArmResult result;
    result.guarded = guarded;
    result.containerMinutes = container_minutes;
    double violations = 0.0;
    for (const ServiceSpec &spec : services) {
        violations += sim.metrics().violationRate(spec.id, kSla);
        result.worstP95 =
            std::max(result.worstP95, sim.metrics().p95(spec.id));
    }
    result.violationPct =
        100.0 * violations / static_cast<double>(services.size());
    if (guard != nullptr)
        result.guard = guard->stats();
    return result;
}

// ---------------------------------------------------------------------
// Campaign battery
// ---------------------------------------------------------------------

struct CampaignArm
{
    CampaignConfig config;
    CampaignResult result;
};

constexpr const char *kCampaignIntensities[] = {"off", "med", "high"};
constexpr const char *kCampaignControllers[] = {"erms", "grandslam",
                                                "rhythm", "firm"};

/** Write the battery's full trajectories as a machine-readable JSON
 *  artifact (common/json.hpp; rows through CampaignMinute's table). */
void
writeCampaignJson(const std::string &path,
                  const std::vector<CampaignArm> &arms)
{
    std::vector<json::Value> rows;
    for (std::size_t i = 0; i < arms.size(); ++i) {
        const CampaignArm &arm = arms[i];
        json::Writer row;
        row.field("intensity", kCampaignIntensities[i / 8]);
        row.field("controller", arm.config.controller);
        row.field("guarded", arm.config.guarded);
        row.field("violation_pct", arm.result.violationPct);
        row.field("worst_p95_ms", arm.result.worstP95Ms);
        row.field("container_minutes", arm.result.containerMinutes);
        row.field("fallback_cycles", arm.result.guard.fallbackCycles);
        row.field("substituted_last_good",
                  arm.result.guard.substitutedLastGood);
        row.field("minutes", arm.result.minutes);
        rows.push_back(row.take());
    }
    json::Writer doc;
    doc.field("benchmark", "chaos_campaign");
    doc.field("arms", rows);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << json::write(doc.take());
    std::printf("\nwrote %s (%zu arms)\n", path.c_str(), arms.size());
}

/** The cross-controller resilience battery: every campaign arm through
 *  runCampaign, summary table, JSON artifact, and an in-process
 *  archive -> replay byte-identity gate on one perturbed arm. */
int
runCampaignBattery(const std::string &json_path)
{
    printBanner(std::cout,
                "Correlated chaos campaigns — diurnal trace populations "
                "under AZ events + per-series corruption, all "
                "controllers behind the same guardrails");

    std::vector<std::function<CampaignArm()>> tasks;
    for (const char *intensity : kCampaignIntensities) {
        for (const char *controller : kCampaignControllers) {
            for (const bool guarded : {false, true}) {
                tasks.push_back([intensity, controller, guarded] {
                    CampaignArm arm;
                    arm.config =
                        makeCampaignArm(intensity, controller, guarded);
                    arm.result = runCampaign(arm.config);
                    return arm;
                });
            }
        }
    }
    const auto arms = runSweep("chaos-campaign", std::move(tasks));

    TextTable table({"intensity", "controller", "arm", "SLA violation %",
                     "worst P95 (ms)", "container-min", "fallback cyc",
                     "LKG substs"});
    for (std::size_t i = 0; i < arms.size(); ++i) {
        const CampaignArm &arm = arms[i];
        table.row()
            .cell(kCampaignIntensities[i / 8])
            .cell(arm.config.controller)
            .cell(arm.config.guarded ? "guarded" : "naive")
            .cell(arm.result.violationPct, 2)
            .cell(arm.result.worstP95Ms, 1)
            .cell(arm.result.containerMinutes, 0)
            .cell(static_cast<double>(arm.result.guard.fallbackCycles), 0)
            .cell(static_cast<double>(
                      arm.result.guard.substitutedLastGood),
                  0);
    }
    table.print(std::cout);

    std::cout
        << "\nshapes to check: at med and high every guarded arm's "
           "SLA-violation rate sits\nat or below its naive counterpart "
           "— for all four controllers, not just Erms.\nAt off the "
           "erms/grandslam/rhythm arms are pairwise identical (clean "
           "stream,\nguard transparent); firm's off arms differ "
           "because its honest reactive p95\nspikes trip the outlier "
           "gate — a measured cost of guarding a reactive\ncontroller, "
           "not a telemetry fault.\n";

    writeCampaignJson(json_path, arms);

    // Archive -> replay byte-identity on a perturbed arm: the archived
    // config alone must reproduce the exact rows and scrape stream.
    const std::size_t pick = 8 + 2 * 0 + 1; // med / erms / guarded
    const std::string archive =
        archiveCampaign(arms[pick].config, arms[pick].result);
    const CampaignReplay replay =
        replayCampaign(archive, runnerOptionsFromEnv());
    std::printf("archive replay (med/erms/guarded): rows %s, "
                "scrapes %s\n",
                replay.minutesIdentical ? "identical" : "MISMATCH",
                replay.historyIdentical ? "identical" : "MISMATCH");
    return replay.identical() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner(std::cout,
                "Telemetry chaos — naive vs guarded control under a "
                "degrading observability path (hotel-reservation, "
                "ramping workload)");

    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    profileApplication(catalog, app);

    const std::vector<Intensity> levels = makeIntensities();

    // One task per (intensity, arm); all seeds derive from the level
    // index so both arms of a row face the identical perturbed stream.
    std::vector<std::function<ArmResult()>> tasks;
    for (std::size_t level = 0; level < levels.size(); ++level) {
        for (const bool guarded : {false, true}) {
            tasks.push_back([&, level, guarded] {
                TelemetryFaultConfig faults = levels[level].faults;
                faults.seed = deriveRunSeed(0x0b5e, level);
                return runArm(catalog, app, faults, guarded,
                              deriveRunSeed(77, level));
            });
        }
    }
    const auto results = runSweep("telemetry-chaos", std::move(tasks));

    TextTable table({"intensity", "controller", "SLA violation %",
                     "worst P95 (ms)", "container-min", "stale cyc",
                     "fallback cyc", "rejects", "LKG substs"});
    for (std::size_t level = 0; level < levels.size(); ++level) {
        for (std::size_t arm = 0; arm < 2; ++arm) {
            const ArmResult &r = results[2 * level + arm];
            table.row()
                .cell(levels[level].name)
                .cell(r.guarded ? "guarded" : "naive")
                .cell(r.violationPct, 2)
                .cell(r.worstP95, 1)
                .cell(r.containerMinutes, 0)
                .cell(static_cast<double>(r.guard.staleCycles), 0)
                .cell(static_cast<double>(r.guard.fallbackCycles), 0)
                .cell(static_cast<double>(r.guard.rejectedBounds +
                                          r.guard.rejectedOutliers +
                                          r.guard.clampedOutliers),
                      0)
                .cell(static_cast<double>(r.guard.substitutedLastGood),
                      0);
        }
    }
    table.print(std::cout);

    std::cout
        << "\nshapes to check: at intensity off the two arms match "
           "exactly (transparency\ncontract; guard columns all zero). "
           "At low both arms still hold the SLA (the\nguard quietly "
           "rejects a few corrupt samples). From med upward the guarded "
           "arm's\nSLA-violation rate sits strictly below the naive "
           "arm's: the guard converts\ncorrupt scrapes into held, "
           "clamped, or over-provisioned capacity instead of\nletting "
           "them tear the deployment down mid-ramp.\n";

    return runCampaignBattery(argc > 1 ? argv[1]
                                       : "BENCH_chaos_campaign.json");
}
