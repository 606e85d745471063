#include "fault/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "sim/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/monitor.hpp"

namespace erms {

namespace {

constexpr SimTime kMinuteUs = 60ULL * 1000ULL * 1000ULL;

/** Bit-exact double comparison (NaN-safe), matching the snapshot
 *  equality semantics in telemetry/registry.cpp. */
bool
sameBits(double a, double b)
{
    std::uint64_t ab = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

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
runCampaign(const CampaignConfig &config)
{
    ERMS_ASSERT(config.horizonMinutes > 0);
    ERMS_ASSERT(config.warmupMinutes >= 0);
    ERMS_ASSERT(config.hostCount > 0);
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

namespace {

/** Shortest-exact double formatting: %.17g round-trips every finite
 *  double through the archive parser (parseNumber) bit-identically. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendAzEvents(std::string &out, const AzEventConfig &az)
{
    out += "{\"seed\": " + std::to_string(az.seed) +
           ", \"events_per_minute\": " + fmtDouble(az.eventsPerMinute) +
           ", \"event_duration_ms\": " + fmtDouble(az.eventDurationMs) +
           ", \"az_count\": " + std::to_string(az.azCount) +
           ", \"scrape_drop_probability\": " +
           fmtDouble(az.scrapeDropProbability) +
           ", \"scrape_delay_probability\": " +
           fmtDouble(az.scrapeDelayProbability) +
           ", \"scrape_delay_ms\": " + fmtDouble(az.scrapeDelayMs) + "}";
}

const char *
corruptionModeName(SeriesCorruptionConfig::Mode mode)
{
    switch (mode) {
    case SeriesCorruptionConfig::Mode::None:
        return "none";
    case SeriesCorruptionConfig::Mode::Scaled:
        return "scaled";
    case SeriesCorruptionConfig::Mode::Frozen:
        return "frozen";
    case SeriesCorruptionConfig::Mode::Negated:
        return "negated";
    }
    return "none";
}

SeriesCorruptionConfig::Mode
corruptionModeFromName(const std::string &name)
{
    if (name == "none")
        return SeriesCorruptionConfig::Mode::None;
    if (name == "scaled")
        return SeriesCorruptionConfig::Mode::Scaled;
    if (name == "frozen")
        return SeriesCorruptionConfig::Mode::Frozen;
    if (name == "negated")
        return SeriesCorruptionConfig::Mode::Negated;
    throw ErmsError("unknown corruption mode: " + name);
}

// --- archive parsing helpers -----------------------------------------
//
// The archive grammar is exactly what archiveCampaign() emits (keys in
// fixed order, no strings containing braces/brackets), so parsing works
// by balanced-delimiter slicing — the same stance as telemetry::fromJson.

std::size_t
keyPos(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find("\"" + key + "\":");
    if (at == std::string::npos)
        throw ErmsError("campaign archive: missing key '" + key + "'");
    return at + key.size() + 3;
}

/** Balanced slice starting at the first `open` at/after `from`. */
std::string
sliceBalanced(const std::string &text, std::size_t from, char open,
              char close)
{
    const std::size_t start = text.find(open, from);
    if (start == std::string::npos)
        throw ErmsError("campaign archive: truncated document");
    int depth = 0;
    for (std::size_t i = start; i < text.size(); ++i) {
        if (text[i] == open)
            ++depth;
        else if (text[i] == close && --depth == 0)
            return text.substr(start, i - start + 1);
    }
    throw ErmsError("campaign archive: unbalanced document");
}

std::string
sliceObject(const std::string &text, const std::string &key)
{
    return sliceBalanced(text, keyPos(text, key), '{', '}');
}

std::string
sliceArray(const std::string &text, const std::string &key)
{
    return sliceBalanced(text, keyPos(text, key), '[', ']');
}

std::string
rawField(const std::string &obj, const std::string &key)
{
    std::size_t at = keyPos(obj, key);
    while (at < obj.size() && obj[at] == ' ')
        ++at;
    const std::size_t end = obj.find_first_of(",}\n]", at);
    if (end == std::string::npos)
        throw ErmsError("campaign archive: truncated value for '" + key +
                        "'");
    return obj.substr(at, end - at);
}

/** The field's whole token as a T; anything else (trailing bytes, a
 *  fraction in an integer, a sign on an unsigned, out of range)
 *  throws. */
template <class T>
T
numberField(const std::string &obj, const std::string &key)
{
    const std::string raw = rawField(obj, key);
    const std::optional<T> value = parseNumber<T>(raw);
    if (!value)
        throw ErmsError("campaign archive: bad number '" + raw +
                        "' for '" + key + "'");
    return *value;
}

double
numField(const std::string &obj, const std::string &key)
{
    return numberField<double>(obj, key);
}

std::uint64_t
u64Field(const std::string &obj, const std::string &key)
{
    return numberField<std::uint64_t>(obj, key);
}

int
intField(const std::string &obj, const std::string &key)
{
    return numberField<int>(obj, key);
}

bool
boolField(const std::string &obj, const std::string &key)
{
    const std::string raw = rawField(obj, key);
    if (raw != "true" && raw != "false")
        throw ErmsError("campaign archive: bad bool for '" + key + "'");
    return raw == "true";
}

std::string
strField(const std::string &obj, const std::string &key)
{
    std::size_t at = keyPos(obj, key);
    at = obj.find('"', at);
    if (at == std::string::npos)
        throw ErmsError("campaign archive: truncated string for '" + key +
                        "'");
    const std::size_t end = obj.find('"', at + 1);
    if (end == std::string::npos)
        throw ErmsError("campaign archive: truncated string for '" + key +
                        "'");
    return obj.substr(at + 1, end - at - 1);
}

AzEventConfig
parseAzEvents(const std::string &obj)
{
    AzEventConfig az;
    az.seed = u64Field(obj, "seed");
    az.eventsPerMinute = numField(obj, "events_per_minute");
    az.eventDurationMs = numField(obj, "event_duration_ms");
    az.azCount = intField(obj, "az_count");
    az.scrapeDropProbability = numField(obj, "scrape_drop_probability");
    az.scrapeDelayProbability = numField(obj, "scrape_delay_probability");
    az.scrapeDelayMs = numField(obj, "scrape_delay_ms");
    return az;
}

} // namespace

std::string
archiveCampaign(const CampaignConfig &config, const CampaignResult &result)
{
    std::string out = "{\n";

    out += "\"campaign\": {\n";
    out += "  \"seed\": " + std::to_string(config.seed) + ",\n";
    out += "  \"horizon_minutes\": " +
           std::to_string(config.horizonMinutes) + ",\n";
    out += "  \"warmup_minutes\": " + std::to_string(config.warmupMinutes) +
           ",\n";
    out += "  \"host_count\": " + std::to_string(config.hostCount) + ",\n";
    out += "  \"trough_fraction\": " + fmtDouble(config.troughFraction) +
           ",\n";
    out += "  \"burst_probability\": " +
           fmtDouble(config.burstProbability) + ",\n";
    out += "  \"controller\": \"" + config.controller + "\",\n";
    out += std::string("  \"guarded\": ") +
           (config.guarded ? "true" : "false") + ",\n";

    const SynthTraceConfig &t = config.trace;
    out += "  \"trace\": {\"microservice_count\": " +
           std::to_string(t.microserviceCount) +
           ", \"service_count\": " + std::to_string(t.serviceCount) +
           ", \"min_graph_size\": " + std::to_string(t.minGraphSize) +
           ", \"max_graph_size\": " + std::to_string(t.maxGraphSize) +
           ", \"popularity_skew\": " + fmtDouble(t.popularitySkew) +
           ", \"parallel_probability\": " +
           fmtDouble(t.parallelProbability) +
           ", \"sla_low_ms\": " + fmtDouble(t.slaLowMs) +
           ", \"sla_high_ms\": " + fmtDouble(t.slaHighMs) +
           std::string(", \"sla_relative_to_knee\": ") +
           (t.slaRelativeToKnee ? "true" : "false") +
           ", \"sla_knee_low\": " + fmtDouble(t.slaKneeLow) +
           ", \"sla_knee_high\": " + fmtDouble(t.slaKneeHigh) +
           ", \"workload_low\": " + fmtDouble(t.workloadLow) +
           ", \"workload_high\": " + fmtDouble(t.workloadHigh) +
           ", \"seed\": " + std::to_string(t.seed) + "},\n";

    const FaultConfig &f = config.faults;
    out += "  \"faults\": {\"seed\": " + std::to_string(f.seed) +
           ", \"crashes_per_minute\": " + fmtDouble(f.crashesPerMinute) +
           ", \"restart_delay_ms\": " + fmtDouble(f.restartDelayMs) +
           ", \"slowdowns_per_minute\": " +
           fmtDouble(f.slowdownsPerMinute) +
           ", \"slowdown_duration_ms\": " +
           fmtDouble(f.slowdownDurationMs) +
           ", \"slowdown_factor\": " + fmtDouble(f.slowdownFactor) +
           ", \"slowdown_cpu_inflate\": " +
           fmtDouble(f.slowdownCpuInflate) +
           ", \"call_failure_probability\": " +
           fmtDouble(f.callFailureProbability) + ", \"az_events\": ";
    appendAzEvents(out, f.azEvents);
    out += "},\n";

    const TelemetryFaultConfig &tf = config.telemetryFaults;
    out += "  \"telemetry_faults\": {\"seed\": " + std::to_string(tf.seed) +
           ", \"scrape_drop_probability\": " +
           fmtDouble(tf.scrapeDropProbability) +
           ", \"scrape_delay_probability\": " +
           fmtDouble(tf.scrapeDelayProbability) +
           ", \"scrape_delay_ms\": " + fmtDouble(tf.scrapeDelayMs) +
           ", \"blackouts_per_minute\": " +
           fmtDouble(tf.blackoutsPerMinute) +
           ", \"blackout_duration_ms\": " +
           fmtDouble(tf.blackoutDurationMs) +
           ", \"span_loss_probability\": " +
           fmtDouble(tf.spanLossProbability) +
           ", \"outlier_probability\": " +
           fmtDouble(tf.outlierProbability) +
           ", \"outlier_fraction\": " + fmtDouble(tf.outlierFraction) +
           ", \"counter_drop_probability\": " +
           fmtDouble(tf.counterDropProbability) +
           ", \"counter_drop_floor\": " + fmtDouble(tf.counterDropFloor) +
           ", \"clock_skew_ms\": " + fmtDouble(tf.clockSkewMs) +
           ", \"clock_jitter_ms\": " + fmtDouble(tf.clockJitterMs) +
           ", \"az_events\": ";
    appendAzEvents(out, tf.azEvents);
    out += "},\n";

    const SeriesCorruptionConfig &c = config.corruption;
    out += std::string("  \"corruption\": {\"mode\": \"") +
           corruptionModeName(c.mode) +
           "\", \"service\": " + std::to_string(c.service) +
           ", \"scale\": " + fmtDouble(c.scale) + "},\n";

    const telemetry::GuardConfig &g = config.guard;
    out += "  \"guard\": {\"max_staleness_ms\": " +
           fmtDouble(g.maxStalenessMs) +
           ", \"max_rate_rpm\": " + fmtDouble(g.maxRateRpm) +
           ", \"max_latency_ms\": " + fmtDouble(g.maxLatencyMs) +
           ", \"max_interference_util\": " +
           fmtDouble(g.maxInterferenceUtil) +
           ", \"mad_gate_multiplier\": " +
           fmtDouble(g.madGateMultiplier) +
           ", \"relative_gate_factor\": " +
           fmtDouble(g.relativeGateFactor) +
           ", \"outlier_history\": " + std::to_string(g.outlierHistory) +
           ", \"outlier_min_history\": " +
           std::to_string(g.outlierMinHistory) +
           ", \"suspect_bad_cycles_to_fallback\": " +
           std::to_string(g.suspectBadCyclesToFallback) +
           ", \"recovery_clean_cycles\": " +
           std::to_string(g.recoveryCleanCycles) + "},\n";

    out += "  \"rails\": {\"fallback_over_provision_factor\": " +
           fmtDouble(config.fallbackOverProvisionFactor) +
           ", \"fallback_escalation_per_cycle\": " +
           fmtDouble(config.fallbackEscalationPerCycle) + "},\n";

    out += std::string("  \"self_tuned\": ") +
           (config.selfTuned ? "true" : "false") + ",\n";

    const tuning::AdaptiveTunerConfig &tn = config.tuner;
    out += std::string("  \"tuner\": {\"enabled\": ") +
           (tn.enabled ? "true" : "false") +
           ", \"cooldown_cycles\": " + std::to_string(tn.cooldownCycles) +
           ", \"over_reject_cycles\": " +
           std::to_string(tn.overRejectCycles) +
           ", \"missed_lie_cycles\": " +
           std::to_string(tn.missedLieCycles) +
           ", \"stale_clean_cycles\": " +
           std::to_string(tn.staleCleanCycles) +
           ", \"residency_window\": " +
           std::to_string(tn.residencyWindow) +
           ", \"fallback_residency_high\": " +
           fmtDouble(tn.fallbackResidencyHigh) +
           ", \"gate_step\": " + fmtDouble(tn.gateStep) +
           ", \"staleness_step\": " + fmtDouble(tn.stalenessStep) +
           ", \"fallback_step\": " + fmtDouble(tn.fallbackStep) +
           ", \"mad_gate_lo\": " + fmtDouble(tn.madGate.lo) +
           ", \"mad_gate_hi\": " + fmtDouble(tn.madGate.hi) +
           ", \"staleness_lo\": " + fmtDouble(tn.stalenessMs.lo) +
           ", \"staleness_hi\": " + fmtDouble(tn.stalenessMs.hi) +
           ", \"suspect_lo\": " + fmtDouble(tn.suspectToFallback.lo) +
           ", \"suspect_hi\": " + fmtDouble(tn.suspectToFallback.hi) +
           ", \"fallback_factor_lo\": " + fmtDouble(tn.fallbackFactor.lo) +
           ", \"fallback_factor_hi\": " + fmtDouble(tn.fallbackFactor.hi) +
           ", \"escalation_lo\": " + fmtDouble(tn.fallbackEscalation.lo) +
           ", \"escalation_hi\": " + fmtDouble(tn.fallbackEscalation.hi) +
           "}\n";
    out += "},\n";

    out += "\"minutes\": [\n";
    for (std::size_t i = 0; i < result.minutes.size(); ++i) {
        const CampaignMinute &row = result.minutes[i];
        out += "  {\"minute\": " + std::to_string(row.minute) +
               ", \"containers\": " + std::to_string(row.containers) +
               ", \"violation_pct\": " + fmtDouble(row.violationPct) +
               ", \"worst_p95_ms\": " + fmtDouble(row.worstP95Ms) +
               ", \"guard_mode\": " + std::to_string(row.guardMode) + "}";
        out += i + 1 < result.minutes.size() ? ",\n" : "\n";
    }
    out += "],\n";

    out += "\"summary\": {\"violation_pct\": " +
           fmtDouble(result.violationPct) +
           ", \"worst_p95_ms\": " + fmtDouble(result.worstP95Ms) +
           ", \"container_minutes\": " +
           fmtDouble(result.containerMinutes) + "},\n";

    out += "\"scrapes\": " + telemetry::toJson(result.perturbedHistory);
    out += "}\n";
    return out;
}

CampaignConfig
campaignConfigFromArchive(const std::string &archive_json)
{
    const std::string campaign = sliceObject(archive_json, "campaign");
    CampaignConfig config;
    config.seed = u64Field(campaign, "seed");
    config.horizonMinutes = intField(campaign, "horizon_minutes");
    config.warmupMinutes = intField(campaign, "warmup_minutes");
    config.hostCount = intField(campaign, "host_count");
    config.troughFraction = numField(campaign, "trough_fraction");
    config.burstProbability = numField(campaign, "burst_probability");
    config.controller = strField(campaign, "controller");
    config.guarded = boolField(campaign, "guarded");

    const std::string trace = sliceObject(campaign, "trace");
    config.trace.microserviceCount = intField(trace, "microservice_count");
    config.trace.serviceCount = intField(trace, "service_count");
    config.trace.minGraphSize = intField(trace, "min_graph_size");
    config.trace.maxGraphSize = intField(trace, "max_graph_size");
    config.trace.popularitySkew = numField(trace, "popularity_skew");
    config.trace.parallelProbability =
        numField(trace, "parallel_probability");
    config.trace.slaLowMs = numField(trace, "sla_low_ms");
    config.trace.slaHighMs = numField(trace, "sla_high_ms");
    config.trace.slaRelativeToKnee =
        boolField(trace, "sla_relative_to_knee");
    config.trace.slaKneeLow = numField(trace, "sla_knee_low");
    config.trace.slaKneeHigh = numField(trace, "sla_knee_high");
    config.trace.workloadLow = numField(trace, "workload_low");
    config.trace.workloadHigh = numField(trace, "workload_high");
    config.trace.seed = u64Field(trace, "seed");

    const std::string faults = sliceObject(campaign, "faults");
    config.faults.seed = u64Field(faults, "seed");
    config.faults.crashesPerMinute = numField(faults, "crashes_per_minute");
    config.faults.restartDelayMs = numField(faults, "restart_delay_ms");
    config.faults.slowdownsPerMinute =
        numField(faults, "slowdowns_per_minute");
    config.faults.slowdownDurationMs =
        numField(faults, "slowdown_duration_ms");
    config.faults.slowdownFactor = numField(faults, "slowdown_factor");
    config.faults.slowdownCpuInflate =
        numField(faults, "slowdown_cpu_inflate");
    config.faults.callFailureProbability =
        numField(faults, "call_failure_probability");
    config.faults.azEvents = parseAzEvents(sliceObject(faults, "az_events"));

    const std::string tf = sliceObject(campaign, "telemetry_faults");
    config.telemetryFaults.seed = u64Field(tf, "seed");
    config.telemetryFaults.scrapeDropProbability =
        numField(tf, "scrape_drop_probability");
    config.telemetryFaults.scrapeDelayProbability =
        numField(tf, "scrape_delay_probability");
    config.telemetryFaults.scrapeDelayMs = numField(tf, "scrape_delay_ms");
    config.telemetryFaults.blackoutsPerMinute =
        numField(tf, "blackouts_per_minute");
    config.telemetryFaults.blackoutDurationMs =
        numField(tf, "blackout_duration_ms");
    config.telemetryFaults.spanLossProbability =
        numField(tf, "span_loss_probability");
    config.telemetryFaults.outlierProbability =
        numField(tf, "outlier_probability");
    config.telemetryFaults.outlierFraction =
        numField(tf, "outlier_fraction");
    config.telemetryFaults.counterDropProbability =
        numField(tf, "counter_drop_probability");
    config.telemetryFaults.counterDropFloor =
        numField(tf, "counter_drop_floor");
    config.telemetryFaults.clockSkewMs = numField(tf, "clock_skew_ms");
    config.telemetryFaults.clockJitterMs = numField(tf, "clock_jitter_ms");
    config.telemetryFaults.azEvents =
        parseAzEvents(sliceObject(tf, "az_events"));

    const std::string corruption = sliceObject(campaign, "corruption");
    config.corruption.mode =
        corruptionModeFromName(strField(corruption, "mode"));
    config.corruption.service = u64Field(corruption, "service");
    config.corruption.scale = numField(corruption, "scale");

    const std::string guard = sliceObject(campaign, "guard");
    config.guard.maxStalenessMs = numField(guard, "max_staleness_ms");
    config.guard.maxRateRpm = numField(guard, "max_rate_rpm");
    config.guard.maxLatencyMs = numField(guard, "max_latency_ms");
    config.guard.maxInterferenceUtil =
        numField(guard, "max_interference_util");
    config.guard.madGateMultiplier =
        numField(guard, "mad_gate_multiplier");
    config.guard.relativeGateFactor =
        numField(guard, "relative_gate_factor");
    config.guard.outlierHistory = static_cast<std::size_t>(
        u64Field(guard, "outlier_history"));
    config.guard.outlierMinHistory = static_cast<std::size_t>(
        u64Field(guard, "outlier_min_history"));
    config.guard.suspectBadCyclesToFallback =
        intField(guard, "suspect_bad_cycles_to_fallback");
    config.guard.recoveryCleanCycles =
        intField(guard, "recovery_clean_cycles");

    const std::string rails = sliceObject(campaign, "rails");
    config.fallbackOverProvisionFactor =
        numField(rails, "fallback_over_provision_factor");
    config.fallbackEscalationPerCycle =
        numField(rails, "fallback_escalation_per_cycle");

    config.selfTuned = boolField(campaign, "self_tuned");

    const std::string tuner = sliceObject(campaign, "tuner");
    config.tuner.enabled = boolField(tuner, "enabled");
    config.tuner.cooldownCycles = intField(tuner, "cooldown_cycles");
    config.tuner.overRejectCycles = intField(tuner, "over_reject_cycles");
    config.tuner.missedLieCycles = intField(tuner, "missed_lie_cycles");
    config.tuner.staleCleanCycles = intField(tuner, "stale_clean_cycles");
    config.tuner.residencyWindow = intField(tuner, "residency_window");
    config.tuner.fallbackResidencyHigh =
        numField(tuner, "fallback_residency_high");
    config.tuner.gateStep = numField(tuner, "gate_step");
    config.tuner.stalenessStep = numField(tuner, "staleness_step");
    config.tuner.fallbackStep = numField(tuner, "fallback_step");
    config.tuner.madGate.lo = numField(tuner, "mad_gate_lo");
    config.tuner.madGate.hi = numField(tuner, "mad_gate_hi");
    config.tuner.stalenessMs.lo = numField(tuner, "staleness_lo");
    config.tuner.stalenessMs.hi = numField(tuner, "staleness_hi");
    config.tuner.suspectToFallback.lo = numField(tuner, "suspect_lo");
    config.tuner.suspectToFallback.hi = numField(tuner, "suspect_hi");
    config.tuner.fallbackFactor.lo =
        numField(tuner, "fallback_factor_lo");
    config.tuner.fallbackFactor.hi =
        numField(tuner, "fallback_factor_hi");
    config.tuner.fallbackEscalation.lo = numField(tuner, "escalation_lo");
    config.tuner.fallbackEscalation.hi = numField(tuner, "escalation_hi");

    return config;
}

CampaignReplay
replayCampaign(const std::string &archive_json)
{
    CampaignReplay replay;
    replay.config = campaignConfigFromArchive(archive_json);

    const std::string minutes = sliceArray(archive_json, "minutes");
    std::size_t pos = 0;
    while (true) {
        const std::size_t next = minutes.find("{\"minute\":", pos);
        if (next == std::string::npos)
            break;
        const std::string row_text = sliceBalanced(minutes, next, '{', '}');
        pos = next + row_text.size();
        CampaignMinute row;
        row.minute = intField(row_text, "minute");
        row.containers = intField(row_text, "containers");
        row.violationPct = numField(row_text, "violation_pct");
        row.worstP95Ms = numField(row_text, "worst_p95_ms");
        row.guardMode = intField(row_text, "guard_mode");
        replay.archivedMinutes.push_back(row);
    }

    const std::vector<telemetry::TelemetrySnapshot> archived_scrapes =
        telemetry::fromJson(sliceArray(archive_json, "scrapes"));
    replay.archivedScrapes = archived_scrapes.size();

    replay.replayed = runCampaign(replay.config);

    replay.minutesIdentical =
        replay.replayed.minutes.size() == replay.archivedMinutes.size() &&
        std::equal(replay.replayed.minutes.begin(),
                   replay.replayed.minutes.end(),
                   replay.archivedMinutes.begin(), sameMinute);
    replay.historyIdentical =
        replay.replayed.perturbedHistory == archived_scrapes;
    return replay;
}

} // namespace erms
