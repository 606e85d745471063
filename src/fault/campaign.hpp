/**
 * @file
 * Trace-driven correlated chaos campaigns (docs/chaos_campaigns.md) —
 * the regression battery that turns one-off chaos runs into replayable
 * evidence. A campaign replays a diurnal SynthTrace population through
 * the data-plane fault layer (fault.hpp) and the observability-chaos
 * layer (telemetry_fault.hpp) at once:
 *
 *  - correlated AZ events: one closed-form schedule (AzEventConfig,
 *    shared verbatim by FaultConfig and TelemetryFaultConfig) drives
 *    host stragglers on the data plane and gauge blackouts plus scrape
 *    drop/delay on the telemetry plane simultaneously;
 *  - per-series corruption: a SeriesCorruptor makes one service's
 *    counters lie (scaled/frozen/negated) while the rest stay honest;
 *  - any controller: "erms", "grandslam", "rhythm", or "firm" via
 *    makeControllerByName, naive or behind the full guardrail stack
 *    (GuardedTelemetryView + makeGuardedController).
 *
 * Every campaign can be archived: archiveCampaign() serializes the
 * complete config, the per-minute violation rows, and the perturbed
 * scrape history (FaultyTelemetryView::perturbedHistory) to one JSON
 * document. replayCampaign() parses the document, reruns the campaign
 * from the archived config, and byte-compares both the violation rows
 * and the perturbed scrape stream — so any surprising bench row
 * reproduces offline, bit for bit, from the artifact alone.
 *
 * Determinism contract: runCampaign() is a pure function of its
 * CampaignConfig. Every seed (trace, simulator, workload shapes, both
 * fault planes) derives from config fields, none from global state, so
 * the same config replays identically on any worker count, either
 * event engine, and across processes.
 */

#ifndef ERMS_FAULT_CAMPAIGN_HPP
#define ERMS_FAULT_CAMPAIGN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/controllers.hpp"
#include "fault/fault.hpp"
#include "fault/telemetry_fault.hpp"
#include "runner/parallel_runner.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/guarded_view.hpp"
#include "tuning/adaptive.hpp"
#include "workload/synth_trace.hpp"

namespace erms {

/** Trace defaults for campaigns: a small shared population (a handful
 *  of services over a few dozen microservices, moderate workloads)
 *  that keeps one campaign arm in the seconds range. Scale up via
 *  CampaignConfig::trace for Taobao-sized batteries. */
SynthTraceConfig campaignTraceConfig();

/**
 * Complete description of one chaos campaign. Default-constructed:
 * a fault-free diurnal replay under the naive Erms controller — both
 * fault planes inactive, no corruption — which is byte-identical to a
 * clean telemetry-driven run (the campaign transparency contract).
 */
struct CampaignConfig
{
    /** Root seed: workload shapes and the simulator seed derive from
     *  it (fault-plane seeds live in their own configs below). */
    std::uint64_t seed = 0xca3aULL;
    int horizonMinutes = 10;
    int warmupMinutes = 1;
    int hostCount = 20;

    /** Trace population replayed by the campaign. */
    SynthTraceConfig trace = campaignTraceConfig();
    /** Diurnal trough as a fraction of each service's trace workload. */
    double troughFraction = 0.30;
    /** Flash-crowd burst probability per minute (see
     *  makeTraceRateSeries). */
    double burstProbability = 0.05;

    /** Controller under test: "erms", "grandslam", "rhythm", "firm". */
    std::string controller = "erms";
    /** Wrap the controller in GuardedTelemetryView +
     *  makeGuardedController. */
    bool guarded = false;

    /** Guard knobs of the guarded arm (ignored when !guarded). The
     *  default is exactly the static GuardConfig every prior campaign
     *  ran with, so existing arms replay byte-identically. */
    telemetry::GuardConfig guard{};
    /** Overrides of the envelope-derived fallback rails (see
     *  runCampaign): the base over-provision factor and its per-cycle
     *  escalation. Negative keeps the computed default. */
    double fallbackOverProvisionFactor = -1.0;
    double fallbackEscalationPerCycle = -1.0;

    /** Close the loop online: wrap the guarded stack in
     *  makeSelfTuningController (requires `guarded`). */
    bool selfTuned = false;
    /** Feedback-rule thresholds and safe bounds of the self-tuned arm
     *  (ignored unless `selfTuned`). */
    tuning::AdaptiveTunerConfig tuner{};

    /** Data-plane faults (crashes/stragglers/AZ events). */
    FaultConfig faults;
    /** Observability-plane faults. Correlation with the data plane is
     *  established by assigning the same AzEventConfig to
     *  faults.azEvents and telemetryFaults.azEvents. */
    TelemetryFaultConfig telemetryFaults;
    /** Per-series corruption composed into the faulty view. */
    SeriesCorruptionConfig corruption;
};

/** One per-minute row of a campaign trajectory. */
struct CampaignMinute
{
    int minute = 0;
    /** Deployed containers across all managed microservices after the
     *  controller's decision this minute. */
    int containers = 0;
    /** Percentage of this minute's completed requests over their
     *  service SLA (worst service). */
    double violationPct = 0.0;
    /** Worst per-service interval P95 this minute (ms). */
    double worstP95Ms = 0.0;
    /** Guard state after the controller ran (-1 when naive). */
    int guardMode = -1;
};

/** Outcome of one campaign run. */
struct CampaignResult
{
    std::vector<CampaignMinute> minutes;
    /** Mean per-service full-run SLA-violation percentage. */
    double violationPct = 0.0;
    /** Worst per-service full-run P95 (ms). */
    double worstP95Ms = 0.0;
    /** Deployed-container integral over the run (container-minutes). */
    double containerMinutes = 0.0;
    telemetry::GuardStats guard{};
    /** Guardrail intervention tallies (guarded arms only). */
    GuardrailStats rails{};
    /** Knob-adjustment trajectory of a self-tuned arm (empty when
     *  !selfTuned or when no feedback rule ever fired). */
    std::vector<tuning::TunerAdjustment> tunerAdjustments;
    /** Final knob vector of a self-tuned arm (the initial static knobs
     *  when the tuner never fired). */
    tuning::TunedKnobs finalKnobs{};
    /** The perturbed scrape history the controller actually saw. */
    std::vector<telemetry::TelemetrySnapshot> perturbedHistory;
};

/** Run one campaign. Pure function of the config (see file doc).
 *  `calibration` sizes the runner of the in-run profiling sweep; it is
 *  not part of the config or the archive, since no result depends on
 *  it.
 *  @throws ErmsError on a config it cannot run (horizon_minutes <= 0,
 *  warmup_minutes < 0, host_count <= 0, self-tuned without guarded). */
CampaignResult runCampaign(const CampaignConfig &config,
                           const RunnerOptions &calibration = {});

/**
 * The named arms of the cross-controller resilience battery
 * (bench_telemetry_chaos, the campaign_replay tool, and the campaign
 * test suite all build arms through here so they agree on what "med"
 * means). Intensities:
 *
 *  - "off":  no faults, no corruption — the transparency row;
 *  - "med":  correlated AZ events (one shared AzEventConfig on both
 *            planes) plus background scrape drop/delay and Scaled
 *            counter corruption of service 0;
 *  - "high": more frequent/longer AZ events, heavier background
 *            telemetry chaos (counter drops, outliers, blackouts) and
 *            Frozen counter corruption of service 0.
 *
 * All seeds derive from the intensity index only, so every controller
 * arm of one intensity faces the identical workload, fault schedule,
 * and perturbed-scrape decisions. @throws ErmsError on unknown names.
 */
CampaignConfig makeCampaignArm(const std::string &intensity,
                               const std::string &controller,
                               bool guarded);

/**
 * Serialize a campaign to its replayable JSON artifact: the full
 * config, the per-minute rows, the summary, and the perturbed scrape
 * history. Every archived struct has one field table (common/json.hpp)
 * that both this writer and parseCampaignArchive() run, so doubles and
 * u64 seeds round-trip exactly (grammar: docs/chaos_campaigns.md).
 */
std::string archiveCampaign(const CampaignConfig &config,
                            const CampaignResult &result);

/** An archive read back without rerunning it. */
struct CampaignArchive
{
    CampaignConfig config;
    /** Only what the archive stores: the per-minute rows, the summary
     *  (violationPct, worstP95Ms, containerMinutes) and the perturbed
     *  scrape history; every other field keeps its default. */
    CampaignResult result;
};

// ---------------------------------------------------------------------
// Archive field tables (common/json.hpp)
// ---------------------------------------------------------------------
//
// One table per archived struct drives both archiveCampaign() and
// parseCampaignArchive(); the bench artifacts reuse CampaignMinute's.
// Each table sits in its struct's namespace so the JSON visitors find
// it by argument-dependent lookup; GuardConfig's, AdaptiveTunerConfig's
// and the scrape history's sit with their structs (guarded_view.hpp,
// adaptive.hpp, exporters.hpp). Keys and nesting are the archive schema
// (docs/chaos_campaigns.md): renaming one breaks old archives.

template <class V>
void
describe(V &v, CampaignMinute &m)
{
    v.field("minute", m.minute);
    v.field("containers", m.containers);
    v.field("violation_pct", m.violationPct);
    v.field("worst_p95_ms", m.worstP95Ms);
    v.field("guard_mode", m.guardMode);
}

template <class V>
void
describe(V &v, SynthTraceConfig &t)
{
    v.field("microservice_count", t.microserviceCount);
    v.field("service_count", t.serviceCount);
    v.field("min_graph_size", t.minGraphSize);
    v.field("max_graph_size", t.maxGraphSize);
    v.field("popularity_skew", t.popularitySkew);
    v.field("parallel_probability", t.parallelProbability);
    v.field("sla_low_ms", t.slaLowMs);
    v.field("sla_high_ms", t.slaHighMs);
    v.field("sla_relative_to_knee", t.slaRelativeToKnee);
    v.field("sla_knee_low", t.slaKneeLow);
    v.field("sla_knee_high", t.slaKneeHigh);
    v.field("workload_low", t.workloadLow);
    v.field("workload_high", t.workloadHigh);
    v.field("seed", t.seed);
}

template <class V>
void
describe(V &v, AzEventConfig &az)
{
    v.field("seed", az.seed);
    v.field("events_per_minute", az.eventsPerMinute);
    v.field("event_duration_ms", az.eventDurationMs);
    v.field("az_count", az.azCount);
    v.field("scrape_drop_probability", az.scrapeDropProbability);
    v.field("scrape_delay_probability", az.scrapeDelayProbability);
    v.field("scrape_delay_ms", az.scrapeDelayMs);
}

template <class V>
void
describe(V &v, FaultConfig &f)
{
    v.field("seed", f.seed);
    v.field("crashes_per_minute", f.crashesPerMinute);
    v.field("restart_delay_ms", f.restartDelayMs);
    v.field("slowdowns_per_minute", f.slowdownsPerMinute);
    v.field("slowdown_duration_ms", f.slowdownDurationMs);
    v.field("slowdown_factor", f.slowdownFactor);
    v.field("slowdown_cpu_inflate", f.slowdownCpuInflate);
    v.field("call_failure_probability", f.callFailureProbability);
    v.field("az_events", f.azEvents);
}

template <class V>
void
describe(V &v, TelemetryFaultConfig &tf)
{
    v.field("seed", tf.seed);
    v.field("scrape_drop_probability", tf.scrapeDropProbability);
    v.field("scrape_delay_probability", tf.scrapeDelayProbability);
    v.field("scrape_delay_ms", tf.scrapeDelayMs);
    v.field("blackouts_per_minute", tf.blackoutsPerMinute);
    v.field("blackout_duration_ms", tf.blackoutDurationMs);
    v.field("span_loss_probability", tf.spanLossProbability);
    v.field("outlier_probability", tf.outlierProbability);
    v.field("outlier_fraction", tf.outlierFraction);
    v.field("counter_drop_probability", tf.counterDropProbability);
    v.field("counter_drop_floor", tf.counterDropFloor);
    v.field("clock_skew_ms", tf.clockSkewMs);
    v.field("clock_jitter_ms", tf.clockJitterMs);
    v.field("az_events", tf.azEvents);
}

inline constexpr json::Name<SeriesCorruptionConfig::Mode>
    kCorruptionModeNames[] = {
        {SeriesCorruptionConfig::Mode::None, "none"},
        {SeriesCorruptionConfig::Mode::Scaled, "scaled"},
        {SeriesCorruptionConfig::Mode::Frozen, "frozen"},
        {SeriesCorruptionConfig::Mode::Negated, "negated"},
};

template <class V>
void
describe(V &v, SeriesCorruptionConfig &c)
{
    v.field("mode", c.mode, kCorruptionModeNames);
    v.field("service", c.service);
    v.field("scale", c.scale);
}

/** The archive's "rails" group: CampaignConfig keeps its two fallback
 *  overrides flat, the archive nests them. */
struct RailOverrides
{
    double &overProvisionFactor;
    double &escalationPerCycle;
};

template <class V>
void
describe(V &v, RailOverrides &r)
{
    v.field("fallback_over_provision_factor", r.overProvisionFactor);
    v.field("fallback_escalation_per_cycle", r.escalationPerCycle);
}

template <class V>
void
describe(V &v, CampaignConfig &c)
{
    v.field("seed", c.seed);
    v.field("horizon_minutes", c.horizonMinutes);
    v.field("warmup_minutes", c.warmupMinutes);
    v.field("host_count", c.hostCount);
    v.field("trough_fraction", c.troughFraction);
    v.field("burst_probability", c.burstProbability);
    v.field("controller", c.controller);
    v.field("guarded", c.guarded);
    v.field("trace", c.trace);
    v.field("faults", c.faults);
    v.field("telemetry_faults", c.telemetryFaults);
    v.field("corruption", c.corruption);
    v.field("guard", c.guard);
    RailOverrides rails{c.fallbackOverProvisionFactor,
                        c.fallbackEscalationPerCycle};
    v.field("rails", rails);
    v.field("self_tuned", c.selfTuned);
    v.field("tuner", c.tuner);
}

/** The archive's "summary" group of a result. */
struct CampaignSummary
{
    CampaignResult &result;
};

template <class V>
void
describe(V &v, CampaignSummary &s)
{
    v.field("violation_pct", s.result.violationPct);
    v.field("worst_p95_ms", s.result.worstP95Ms);
    v.field("container_minutes", s.result.containerMinutes);
}

template <class V>
void
describe(V &v, CampaignArchive &a)
{
    v.field("campaign", a.config);
    v.field("minutes", a.result.minutes);
    CampaignSummary summary{a.result};
    v.field("summary", summary);
    v.field("scrapes", a.result.perturbedHistory);
}

/**
 * The parse step of replayCampaign(): read an archive produced by
 * archiveCampaign(). Strict: a missing, unknown or duplicate key, a
 * value that does not fit its field, or trailing bytes throw.
 * @throws ErmsError naming the key path of the first problem.
 */
CampaignArchive parseCampaignArchive(const std::string &archive_json);

/** Outcome of replaying an archived campaign offline. */
struct CampaignReplay
{
    /** Config parsed back from the archive. */
    CampaignConfig config;
    /** Fresh rerun of that config. */
    CampaignResult replayed;
    /** Rows as recorded in the archive. */
    std::vector<CampaignMinute> archivedMinutes;
    std::size_t archivedScrapes = 0;

    /** Rerun rows bit-identical to the archived rows. */
    bool minutesIdentical = false;
    /** Rerun perturbed scrape history bit-identical to the archive. */
    bool historyIdentical = false;

    bool identical() const { return minutesIdentical && historyIdentical; }
};

/**
 * Parse an archive produced by archiveCampaign(), rerun the campaign
 * from the archived config (calibrating on `calibration` workers, see
 * runCampaign), and byte-compare rows and scrape history.
 * @throws ErmsError on a malformed document or an archived config
 * runCampaign() rejects.
 */
CampaignReplay replayCampaign(const std::string &archive_json,
                              const RunnerOptions &calibration = {});

/**
 * The config of an archive (parseCampaignArchive().config) — the entry
 * point of the knob-sweep harness (tuning/sweep.hpp), which measures
 * operating curves on the exact fault schedule an incident was captured
 * under. @throws ErmsError on a malformed document.
 */
CampaignConfig campaignConfigFromArchive(const std::string &archive_json);

} // namespace erms

#endif // ERMS_FAULT_CAMPAIGN_HPP
