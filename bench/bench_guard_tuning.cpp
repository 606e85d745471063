/**
 * @file
 * Self-tuning guardrail battery (docs/self_tuning.md): measure what the
 * knob-sweep operating curves and the online AdaptiveGuardTuner buy on
 * top of the hand-picked static guard.
 *
 * Default mode (optional argv[1] = JSON path) runs two stages:
 *
 *  1. **Sweep** — runGuardSweep over per-knob grids × the med and high
 *     campaign intensities (trimmed populations), reducing to operating
 *     curves, knee picks, and safe bounds.
 *  2. **Battery** — {off, med, high} × {erms, grandslam, rhythm, firm}
 *     × three guarded arms:
 *       static — the hand-picked default GuardConfig;
 *       swept  — the sweep's knee picks applied as a static config;
 *       self   — the static config plus makeSelfTuningController
 *                bounded by the sweep's safe ranges.
 *
 * Shape to observe: at off all three arms of a controller are
 * byte-identical (clean stream → the tuner is provably inert). At med
 * and high the self-tuned arm's SLA-violation rate sits at or below the
 * static arm's — the exit status enforces exactly that gate, for all
 * four controllers.
 *
 * The JSON artifact (default BENCH_guard_tuning.json) carries the full
 * sweep (cells, curves, knee picks, safe bounds), every arm's
 * per-minute trajectory, and each self-tuned arm's knob-adjustment
 * trajectory. Every seed derives from makeCampaignArm, so the artifact
 * is byte-identical for any ERMS_RUNNER_THREADS.
 *
 * Auxiliary modes (used by scripts/check.sh):
 *   write-scenario <path> [intensity]  — archive one trimmed campaign
 *       (archiveCampaign) as a sweep scenario artifact;
 *   sweep-lite <out.json> [scenario-archive.json]  — tiny two-knob
 *       sweep (scenario from the archive when given, else the trimmed
 *       med arm) written as sweepToJson; check.sh byte-compares the
 *       output across worker counts.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "fault/campaign.hpp"
#include "tuning/sweep.hpp"

using namespace erms;
using namespace erms::bench;
using namespace erms::tuning;

namespace {

constexpr const char *kIntensities[] = {"off", "med", "high"};
constexpr const char *kControllers[] = {"erms", "grandslam", "rhythm",
                                        "firm"};
constexpr const char *kArms[] = {"static", "swept", "self"};

/** The battery population: the campaign-suite shrink (fast in-suite
 *  runs) with a longer horizon so the tuner's evidence windows have
 *  room to fire. */
CampaignConfig
trimmedArm(const std::string &intensity, const std::string &controller,
           int horizon_minutes)
{
    CampaignConfig config = makeCampaignArm(intensity, controller, true);
    config.horizonMinutes = horizon_minutes;
    config.hostCount = 8;
    config.trace.microserviceCount = 16;
    config.trace.serviceCount = 2;
    config.trace.workloadLow = 20000.0;
    config.trace.workloadHigh = 30000.0;
    return config;
}

/** Apply a sweep/tuner knob vector as a *static* campaign config. */
void
applyKnobs(CampaignConfig &config, const TunedKnobs &knobs)
{
    config.guard.madGateMultiplier = knobs.madGateMultiplier;
    config.guard.maxStalenessMs = knobs.maxStalenessMs;
    config.guard.suspectBadCyclesToFallback =
        knobs.suspectBadCyclesToFallback;
    config.fallbackOverProvisionFactor = knobs.fallbackOverProvisionFactor;
    config.fallbackEscalationPerCycle = knobs.fallbackEscalationPerCycle;
}

// ---------------------------------------------------------------------
// Sweep stage
// ---------------------------------------------------------------------

GuardSweepConfig
makeSweepConfig()
{
    GuardSweepConfig sweep;
    sweep.runnerWorkers = runnerOptionsFromEnv().workers;
    // Cells run a shorter horizon than the battery: the curves measure
    // steady-state guard response, not tuner windows.
    sweep.scenarios.push_back({"med", trimmedArm("med", "erms", 8)});
    sweep.scenarios.push_back({"high", trimmedArm("high", "erms", 8)});
    sweep.grids.push_back(
        {GuardKnob::MadGateMultiplier, {2.0, 4.0, 8.0, 16.0, 32.0}});
    sweep.grids.push_back(
        {GuardKnob::MaxStalenessMs, {45000.0, 90000.0, 180000.0}});
    sweep.grids.push_back(
        {GuardKnob::SuspectBadCyclesToFallback, {1.0, 2.0, 3.0}});
    sweep.grids.push_back(
        {GuardKnob::FallbackOverProvisionFactor, {1.1, 1.25, 1.5, 2.0}});
    return sweep;
}

void
printSweep(const GuardSweepConfig &config, const GuardSweepResult &result)
{
    printBanner(std::cout,
                "Knob-sweep operating curves — per-knob grids x {med, "
                "high} campaign intensities, knee picks + safe bounds");

    TextTable table({"knob", "value", "violation %", "containers",
                     "reject rate", "fallback res", "cost", "pick"});
    for (const OperatingCurve &curve : result.curves) {
        for (std::size_t i = 0; i < curve.points.size(); ++i) {
            const CurvePoint &p = curve.points[i];
            std::string pick;
            if (i == curve.kneeIndex)
                pick = "knee";
            else if (p.value >= curve.safeBounds.lo &&
                     p.value <= curve.safeBounds.hi)
                pick = "safe";
            table.row()
                .cell(guardKnobName(curve.knob))
                .cell(p.value, 2)
                .cell(p.violationPct, 2)
                .cell(p.meanContainers, 1)
                .cell(p.rejectionRate, 3)
                .cell(p.fallbackResidency, 3)
                .cell(p.cost, 3)
                .cell(pick);
        }
    }
    table.print(std::cout);

    const TunedKnobs &k = result.tunedKnobs;
    std::printf("\nsweep-tuned knobs: mad_gate=%.2f staleness_ms=%.0f "
                "suspect_cycles=%d fallback_factor=%.2f "
                "escalation=%.2f\n",
                k.madGateMultiplier, k.maxStalenessMs,
                k.suspectBadCyclesToFallback, k.fallbackOverProvisionFactor,
                k.fallbackEscalationPerCycle);
    (void)config;
}

// ---------------------------------------------------------------------
// Battery stage
// ---------------------------------------------------------------------

struct BatteryArm
{
    std::string intensity;
    std::string controller;
    std::string arm; ///< "static" | "swept" | "self"
    CampaignConfig config;
    CampaignResult result;
};

std::vector<BatteryArm>
runBattery(const GuardSweepResult &sweep)
{
    std::vector<std::function<BatteryArm()>> tasks;
    for (const char *intensity : kIntensities) {
        for (const char *controller : kControllers) {
            for (const char *arm : kArms) {
                tasks.push_back([&sweep, intensity, controller, arm] {
                    BatteryArm out;
                    out.intensity = intensity;
                    out.controller = controller;
                    out.arm = arm;
                    out.config = trimmedArm(intensity, controller, 12);
                    if (std::strcmp(arm, "swept") == 0) {
                        applyKnobs(out.config, sweep.tunedKnobs);
                    } else if (std::strcmp(arm, "self") == 0) {
                        out.config.selfTuned = true;
                        out.config.tuner = sweep.tunerConfig;
                    }
                    out.result = runCampaign(out.config);
                    return out;
                });
            }
        }
    }
    return runSweep("guard-tuning", std::move(tasks));
}

void
printBattery(const std::vector<BatteryArm> &arms)
{
    printBanner(std::cout,
                "Guard-tuning battery — static vs sweep-tuned vs "
                "self-tuned guardrails, all controllers");

    TextTable table({"intensity", "controller", "arm", "SLA violation %",
                     "worst P95 (ms)", "container-min", "fallback cyc",
                     "rejects", "adjustments"});
    for (const BatteryArm &arm : arms) {
        const auto &g = arm.result.guard;
        table.row()
            .cell(arm.intensity)
            .cell(arm.controller)
            .cell(arm.arm)
            .cell(arm.result.violationPct, 2)
            .cell(arm.result.worstP95Ms, 1)
            .cell(arm.result.containerMinutes, 0)
            .cell(static_cast<double>(g.fallbackCycles), 0)
            .cell(static_cast<double>(g.rejectedBounds +
                                      g.rejectedOutliers +
                                      g.clampedOutliers),
                  0)
            .cell(static_cast<double>(arm.result.tunerAdjustments.size()),
                  0);
    }
    table.print(std::cout);

    std::cout
        << "\nshapes to check: at off the three arms of each controller "
           "are identical\n(clean stream -> the tuner never fires; "
           "adjustments column 0). At med and\nhigh the self arm's "
           "SLA-violation rate sits at or below its static arm's\n(the "
           "exit-status gate), typically via earlier fallback or a "
           "raised\nover-provision margin; the swept arm shows what the "
           "knee picks alone buy.\n";
}

void
writeBatteryJson(const std::string &path, const GuardSweepConfig &sweep,
                 const GuardSweepResult &sweep_result,
                 const std::vector<BatteryArm> &arms)
{
    std::vector<json::Value> rows;
    for (const BatteryArm &arm : arms) {
        const auto &g = arm.result.guard;
        std::vector<json::Value> adjustments;
        for (const TunerAdjustment &adj : arm.result.tunerAdjustments) {
            json::Writer entry;
            entry.field("cycle", adj.cycle);
            entry.field("rule", adj.rule);
            TunedKnobs knobs = adj.knobs;
            describe(entry, knobs);
            adjustments.push_back(entry.take());
        }
        json::Writer row;
        row.field("intensity", arm.intensity);
        row.field("controller", arm.controller);
        row.field("arm", arm.arm);
        row.field("violation_pct", arm.result.violationPct);
        row.field("worst_p95_ms", arm.result.worstP95Ms);
        row.field("container_minutes", arm.result.containerMinutes);
        row.field("fallback_cycles", g.fallbackCycles);
        row.field("rejections", g.rejectedBounds + g.rejectedOutliers +
                                    g.clampedOutliers);
        row.field("transitions", g.transitions);
        row.field("final_knobs", arm.result.finalKnobs);
        row.field("adjustments", adjustments);
        row.field("minutes", arm.result.minutes);
        rows.push_back(row.take());
    }
    json::Writer doc;
    doc.field("benchmark", "guard_tuning");
    doc.field("sweep", json::parse(sweepToJson(sweep, sweep_result)));
    doc.field("arms", rows);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << json::write(doc.take());
    std::printf("\nwrote %s (%zu arms)\n", path.c_str(), arms.size());
}

/** The exit-status gate: at med and high, every controller's self-tuned
 *  arm must not violate the SLA more than its static arm. */
int
gateBattery(const std::vector<BatteryArm> &arms)
{
    int failures = 0;
    for (const char *intensity : {"med", "high"}) {
        for (const char *controller : kControllers) {
            const BatteryArm *stat = nullptr, *self = nullptr;
            for (const BatteryArm &arm : arms) {
                if (arm.intensity != intensity ||
                    arm.controller != controller)
                    continue;
                if (arm.arm == "static")
                    stat = &arm;
                else if (arm.arm == "self")
                    self = &arm;
            }
            if (stat == nullptr || self == nullptr)
                continue;
            const bool ok =
                self->result.violationPct <= stat->result.violationPct;
            std::printf("gate %s/%s: self %.4f%% vs static %.4f%% — %s\n",
                        intensity, controller, self->result.violationPct,
                        stat->result.violationPct, ok ? "ok" : "FAIL");
            if (!ok)
                ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Auxiliary modes
// ---------------------------------------------------------------------

int
writeScenarioMode(const std::string &path, const std::string &intensity)
{
    const CampaignConfig config = trimmedArm(intensity, "erms", 5);
    const CampaignResult result =
        runCampaign(config, runnerOptionsFromEnv());
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << archiveCampaign(config, result);
    std::printf("wrote scenario archive %s (%s/erms/guarded, %d min)\n",
                path.c_str(), intensity.c_str(), config.horizonMinutes);
    return 0;
}

int
sweepLiteMode(const std::string &out_path, const char *archive_path)
{
    GuardSweepConfig sweep;
    sweep.runnerWorkers = runnerOptionsFromEnv().workers;
    if (archive_path != nullptr) {
        std::ifstream in(archive_path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", archive_path);
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        sweep.scenarios.push_back(
            scenarioFromArchive(buf.str(), "archived"));
    } else {
        sweep.scenarios.push_back({"med", trimmedArm("med", "erms", 5)});
    }
    sweep.grids.push_back({GuardKnob::MadGateMultiplier, {4.0, 16.0}});
    sweep.grids.push_back(
        {GuardKnob::FallbackOverProvisionFactor, {1.25, 2.0}});

    const GuardSweepResult result = runGuardSweep(sweep);
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << sweepToJson(sweep, result);
    std::printf("wrote sweep-lite %s (%zu cells, knee mad_gate=%s)\n",
                out_path.c_str(), result.cells.size(),
                json::numberText(result.tunedKnobs.madGateMultiplier).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 2 && std::strcmp(argv[1], "write-scenario") == 0) {
            if (argc < 3) {
                std::fprintf(stderr,
                             "usage: %s write-scenario <path> [intensity]\n",
                             argv[0]);
                return 2;
            }
            return writeScenarioMode(argv[2], argc > 3 ? argv[3] : "med");
        }
        if (argc >= 2 && std::strcmp(argv[1], "sweep-lite") == 0) {
            if (argc < 3) {
                std::fprintf(
                    stderr,
                    "usage: %s sweep-lite <out.json> [scenario.json]\n",
                    argv[0]);
                return 2;
            }
            return sweepLiteMode(argv[2], argc > 3 ? argv[3] : nullptr);
        }

        const std::string json_path =
            argc > 1 ? argv[1] : "BENCH_guard_tuning.json";

        const GuardSweepConfig sweep_config = makeSweepConfig();
        std::printf("running knob sweep (%zu cells)...\n",
                    [&] {
                        std::size_t n = 0;
                        for (const KnobGrid &g : sweep_config.grids)
                            n += g.values.size();
                        return n * sweep_config.scenarios.size();
                    }());
        const GuardSweepResult sweep = runGuardSweep(sweep_config);
        printSweep(sweep_config, sweep);

        const std::vector<BatteryArm> arms = runBattery(sweep);
        printBattery(arms);
        writeBatteryJson(json_path, sweep_config, sweep, arms);
        return gateBattery(arms);
    } catch (const ErmsError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
