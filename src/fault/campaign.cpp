#include "fault/campaign.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "sim/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/monitor.hpp"

namespace erms {

namespace {

bool
sameMinute(const CampaignMinute &a, const CampaignMinute &b)
{
    return a.minute == b.minute && a.containers == b.containers &&
           sameBits(a.violationPct, b.violationPct) &&
           sameBits(a.worstP95Ms, b.worstP95Ms) &&
           a.guardMode == b.guardMode;
}

} // namespace

SynthTraceConfig
campaignTraceConfig()
{
    SynthTraceConfig config;
    config.microserviceCount = 48;
    config.serviceCount = 4;
    config.minGraphSize = 4;
    config.maxGraphSize = 8;
    config.slaRelativeToKnee = true;
    config.slaKneeLow = 1.3;
    config.slaKneeHigh = 1.8;
    config.workloadLow = 60000.0;
    config.workloadHigh = 90000.0;
    config.seed = 0x7aceULL;
    return config;
}

CampaignResult
runCampaign(const CampaignConfig &config, const RunnerOptions &calibration)
{
    // Named as the archive spells them: an archived config arrives here
    // unchecked from replayCampaign().
    if (config.horizonMinutes <= 0)
        throw ErmsError("CampaignConfig: horizon_minutes must be > 0, got " +
                        std::to_string(config.horizonMinutes));
    if (config.warmupMinutes < 0)
        throw ErmsError("CampaignConfig: warmup_minutes must be >= 0, got " +
                        std::to_string(config.warmupMinutes));
    if (config.hostCount <= 0)
        throw ErmsError("CampaignConfig: host_count must be > 0, got " +
                        std::to_string(config.hostCount));
    if (config.selfTuned && !config.guarded)
        throw ErmsError("CampaignConfig: selfTuned requires guarded — "
                        "the tuner adapts the guard stack, which a naive "
                        "arm does not have");

    SynthTrace trace = makeSynthTrace(config.trace);

    // Calibrate the catalog's latency models through the simulator (the
    // offline-profiling step every bench performs): the generator's
    // bootstrap models are deliberately conservative, and a campaign
    // needs *tight* plans — otherwise provisioning slack absorbs any
    // amount of telemetry lying and every arm trivially meets its SLA.
    // The sweep is a pure function of (catalog, graphs, sweep config),
    // so every arm of one intensity profiles identically.
    {
        std::vector<const DependencyGraph *> graph_ptrs;
        graph_ptrs.reserve(trace.graphs.size());
        for (const DependencyGraph &graph : trace.graphs)
            graph_ptrs.push_back(&graph);
        ProfilingSweepConfig sweep;
        sweep.hostCount = config.hostCount;
        sweep.minutesPerCell = 2;
        sweep.runner = calibration;
        fitAndAttachModels(
            trace.catalog,
            collectProfilingSamples(trace.catalog, graph_ptrs, sweep));
    }

    const std::vector<std::vector<double>> series = makeTraceRateSeries(
        trace, config.horizonMinutes, config.troughFraction,
        config.burstProbability, deriveRunSeed(config.seed, 0));

    SimConfig sim_config;
    sim_config.hostCount = config.hostCount;
    sim_config.horizonMinutes = config.horizonMinutes;
    sim_config.warmupMinutes = config.warmupMinutes;
    sim_config.seed = deriveRunSeed(config.seed, 1);
    Simulation sim(trace.catalog, sim_config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);
    if (config.faults.anyFaults())
        sim.setFaultConfig(config.faults);

    // The controller only ever observes through the perturbed view;
    // with both fault planes inactive and no corruption this is exactly
    // the raw scraped view (the campaign transparency contract).
    const SimTime horizon =
        static_cast<SimTime>(config.horizonMinutes) * kMinuteUs;
    auto view = std::make_shared<FaultyTelemetryView>(
        monitor, config.telemetryFaults, config.hostCount, horizon,
        config.corruption);

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (std::size_t s = 0; s < trace.graphs.size(); ++s) {
        const DependencyGraph &graph = trace.graphs[s];
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = trace.slaMs[s];
        svc.rateSeries = series[s];
        sim.addService(svc);

        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = trace.slaMs[s];
        spec.workload = series[s].front();
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }
    std::sort(managed.begin(), managed.end());
    managed.erase(std::unique(managed.begin(), managed.end()),
                  managed.end());

    // Every arm starts from the identical Erms plan at nominal
    // interference, so trajectories diverge only through the controller
    // under test — not through bespoke warm starts.
    ErmsController planner(trace.catalog, {});
    sim.applyPlan(planner.plan(services, Interference{0.2, 0.2}));

    std::shared_ptr<telemetry::GuardedTelemetryView> guard;
    std::shared_ptr<tuning::AdaptiveGuardTuner> tuner;
    auto rail_stats = std::make_shared<GuardrailStats>();
    std::function<void(Simulation &, int)> scaling;
    if (config.guarded) {
        guard = std::make_shared<telemetry::GuardedTelemetryView>(
            view, config.guard);
        // Campaign guardrails know the diurnal envelope they protect:
        // a blind FALLBACK hold anchored at a trough-time last-known-
        // good must be allowed to escalate to peak demand, i.e. by the
        // peak/trough ratio 1/troughFraction — the default 2.5x ceiling
        // was sized for flat workloads. Recovery up-steps after an
        // incident are SLA-safe (over-provision is the conservative
        // direction), so the SUSPECT step bound is a doubling per
        // cycle, which still caps corrupt-telemetry-driven runaway.
        // Sweep cells override the base factor/escalation through the
        // config; negative overrides keep this envelope default.
        GuardrailConfig rails;
        rails.maxScaleStepFraction = 1.0;
        rails.fallbackEscalationPerCycle = 0.5;
        if (config.fallbackOverProvisionFactor >= 0.0)
            rails.fallbackOverProvisionFactor =
                config.fallbackOverProvisionFactor;
        if (config.fallbackEscalationPerCycle >= 0.0)
            rails.fallbackEscalationPerCycle =
                config.fallbackEscalationPerCycle;
        rails.fallbackMaxOverProvisionFactor =
            std::max(rails.fallbackMaxOverProvisionFactor,
                     rails.fallbackOverProvisionFactor /
                         config.troughFraction);
        auto inner = makeControllerByName(config.controller, trace.catalog,
                                          services, guard);
        if (config.selfTuned) {
            tuner = std::make_shared<tuning::AdaptiveGuardTuner>(
                tuning::knobsFrom(config.guard,
                                  rails.fallbackOverProvisionFactor,
                                  rails.fallbackEscalationPerCycle),
                config.tuner);
            scaling = makeSelfTuningController(std::move(inner), guard,
                                               managed, tuner, rails,
                                               rail_stats);
        } else {
            scaling = makeGuardedController(
                std::move(inner), guard, managed,
                std::make_shared<GuardrailConfig>(rails), rail_stats);
        }
    } else {
        scaling = makeControllerByName(config.controller, trace.catalog,
                                       services, view);
    }

    CampaignResult result;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        scaling(s, minute);
        CampaignMinute row;
        row.minute = minute;
        for (MicroserviceId id : managed)
            row.containers += s.containerCount(id);
        result.containerMinutes += row.containers;
        for (const ServiceSpec &spec : services) {
            auto it = s.metrics().endToEndByMinute.find(spec.id);
            if (it == s.metrics().endToEndByMinute.end())
                continue;
            const SampleSet &window =
                it->second.window(static_cast<std::uint64_t>(minute));
            if (window.empty())
                continue;
            row.violationPct =
                std::max(row.violationPct,
                         100.0 * window.fractionAbove(spec.slaMs));
            row.worstP95Ms = std::max(row.worstP95Ms, window.p95());
        }
        row.guardMode =
            guard != nullptr ? static_cast<int>(guard->mode()) : -1;
        result.minutes.push_back(row);
    });
    sim.run();

    double violations = 0.0;
    for (const ServiceSpec &spec : services) {
        violations += sim.metrics().violationRate(spec.id, spec.slaMs);
        result.worstP95Ms =
            std::max(result.worstP95Ms, sim.metrics().p95(spec.id));
    }
    result.violationPct =
        100.0 * violations / static_cast<double>(services.size());
    if (guard != nullptr)
        result.guard = guard->stats();
    result.rails = *rail_stats;
    if (tuner != nullptr) {
        result.tunerAdjustments = tuner->adjustments();
        result.finalKnobs = tuner->knobs();
    }
    result.perturbedHistory = view->perturbedHistory();
    return result;
}

CampaignConfig
makeCampaignArm(const std::string &intensity,
                const std::string &controller, bool guarded)
{
    int level = -1;
    if (intensity == "off")
        level = 0;
    else if (intensity == "med")
        level = 1;
    else if (intensity == "high")
        level = 2;
    else
        throw ErmsError("unknown campaign intensity: " + intensity);

    CampaignConfig config;
    config.seed = deriveRunSeed(0xca3aULL, static_cast<std::size_t>(level));
    config.controller = controller;
    config.guarded = guarded;
    if (level == 0)
        return config;

    // One AzEventConfig, assigned verbatim to both planes: the shared
    // seed *is* the correlation (see AzEventConfig).
    AzEventConfig az;
    az.seed = deriveRunSeed(0xa25eULL, static_cast<std::size_t>(level));
    az.eventsPerMinute = level == 1 ? 0.5 : 0.7;
    az.eventDurationMs = level == 1 ? 90000.0 : 100000.0;
    az.scrapeDropProbability = level == 1 ? 0.8 : 0.85;
    az.scrapeDelayProbability = level == 1 ? 0.5 : 0.6;
    az.scrapeDelayMs = level == 1 ? 45000.0 : 60000.0;

    config.faults.seed =
        deriveRunSeed(0xfa17ULL, static_cast<std::size_t>(level));
    config.faults.azEvents = az;

    config.telemetryFaults.seed =
        deriveRunSeed(0x0b5eULL, static_cast<std::size_t>(level));
    config.telemetryFaults.azEvents = az;
    config.telemetryFaults.scrapeDropProbability = level == 1 ? 0.2 : 0.35;
    config.telemetryFaults.scrapeDelayProbability = level == 1 ? 0.2 : 0.35;
    if (level == 2) {
        config.telemetryFaults.counterDropProbability = 0.25;
        config.telemetryFaults.outlierProbability = 0.25;
        config.telemetryFaults.blackoutsPerMinute = 1.0;
    }

    config.corruption.mode = level == 1
                                 ? SeriesCorruptionConfig::Mode::Scaled
                                 : SeriesCorruptionConfig::Mode::Frozen;
    config.corruption.service = 0;
    config.corruption.scale = 0.5;
    return config;
}

// ---------------------------------------------------------------------
// Archive
// ---------------------------------------------------------------------

std::string
archiveCampaign(const CampaignConfig &config, const CampaignResult &result)
{
    return json::write(json::encode(CampaignArchive{config, result}));
}

CampaignArchive
parseCampaignArchive(const std::string &archive_json)
{
    CampaignArchive archive = json::read<CampaignArchive>(archive_json);
    telemetry::shareSchemas(archive.result.perturbedHistory);
    return archive;
}

CampaignConfig
campaignConfigFromArchive(const std::string &archive_json)
{
    return parseCampaignArchive(archive_json).config;
}

CampaignReplay
replayCampaign(const std::string &archive_json,
               const RunnerOptions &calibration)
{
    CampaignArchive archived = parseCampaignArchive(archive_json);
    CampaignReplay replay;
    replay.config = archived.config;
    replay.archivedMinutes = std::move(archived.result.minutes);
    replay.archivedScrapes = archived.result.perturbedHistory.size();

    replay.replayed = runCampaign(replay.config, calibration);

    replay.minutesIdentical =
        replay.replayed.minutes.size() == replay.archivedMinutes.size() &&
        std::equal(replay.replayed.minutes.begin(),
                   replay.replayed.minutes.end(),
                   replay.archivedMinutes.begin(), sameMinute);
    replay.historyIdentical =
        replay.replayed.perturbedHistory == archived.result.perturbedHistory;
    return replay;
}

} // namespace erms
