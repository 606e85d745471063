/**
 * @file
 * Offline knob-sweep harness — the measurement half of the self-tuning
 * guardrails (docs/self_tuning.md). One sweep fans per-knob value grids
 * × chaos-campaign scenarios across the ParallelRunner: every cell is
 * one guarded runCampaign() with exactly one knob moved off its
 * default, recording the cell's SLA-violation percentage, mean deployed
 * containers, guard rejection rate, and fallback residency.
 *
 * Cells reduce into per-knob **operating curves**: per value, metrics
 * averaged across scenarios; violation and container cost normalized
 * over the curve and scalarized (violation + costWeight × containers);
 * the **knee** is the cost-minimizing value and the **safe bounds** are
 * the contiguous value range around the knee whose cost stays within
 * `safeCostSlack` of it. The knee picks feed sweep-tuned static
 * configs; the safe bounds feed AdaptiveTunerConfig so the online tuner
 * only ever moves inside regions the sweep has measured to be sane.
 *
 * Determinism contract: cells derive entirely from the sweep config
 * (runCampaign is a pure function of its config), tasks land in (grid,
 * value, scenario) order regardless of worker count, and the reduction
 * is order-stable — so sweepToJson() output is byte-identical across
 * runner worker counts (gated in scripts/check.sh via the bench's
 * sweep-lite mode).
 */

#ifndef ERMS_TUNING_SWEEP_HPP
#define ERMS_TUNING_SWEEP_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "tuning/adaptive.hpp"

namespace erms::tuning {

/** Knobs the sweep harness knows how to move on a campaign. */
enum class GuardKnob
{
    MadGateMultiplier,
    MaxStalenessMs,
    SuspectBadCyclesToFallback,
    FallbackOverProvisionFactor,
};

/** Stable lowercase name ("mad_gate_multiplier", ...). */
const char *guardKnobName(GuardKnob knob);

/** One per-knob value grid. */
struct KnobGrid
{
    GuardKnob knob = GuardKnob::MadGateMultiplier;
    std::vector<double> values;
};

/** One campaign the grids are evaluated against. The config is forced
 *  guarded and non-self-tuned per cell (a sweep measures the *static*
 *  response surface). */
struct SweepScenario
{
    std::string label;
    CampaignConfig config;
};

/** Scenario built from an archived campaign (campaign_replay /
 *  archiveCampaign artifacts), so operating curves can be measured on
 *  the exact fault schedule an incident was captured under.
 *  @throws ErmsError on a malformed archive. */
SweepScenario scenarioFromArchive(const std::string &archive_json,
                                  std::string label);

/** Complete description of one knob sweep. */
struct GuardSweepConfig
{
    std::vector<SweepScenario> scenarios;
    std::vector<KnobGrid> grids;
    /** Weight of normalized container cost against normalized
     *  violation percentage in the knee scalarization. */
    double costWeight = 0.25;
    /** Safe-bounds slack: values whose cost is within this much of the
     *  knee's cost stay inside the online tuner's bounds. */
    double safeCostSlack = 0.10;
    /** ParallelRunner workers (0 = hardware). */
    int runnerWorkers = 0;
};

/** One measured cell: a (knob, value, scenario) campaign run. */
struct SweepCell
{
    GuardKnob knob = GuardKnob::MadGateMultiplier;
    double value = 0.0;
    std::string scenario;
    double violationPct = 0.0;
    double meanContainers = 0.0;
    /** Guard rejections (bounds + outlier + clamp) per control cycle. */
    double rejectionRate = 0.0;
    /** Fraction of control cycles spent in FALLBACK. */
    double fallbackResidency = 0.0;
};

/** One point of an operating curve (metrics averaged over scenarios). */
struct CurvePoint
{
    double value = 0.0;
    double violationPct = 0.0;
    double meanContainers = 0.0;
    double rejectionRate = 0.0;
    double fallbackResidency = 0.0;
    /** Scalarized cost (normalized violation + weighted containers). */
    double cost = 0.0;
};

/** Per-knob operating curve with knee pick and safe bounds. */
struct OperatingCurve
{
    GuardKnob knob = GuardKnob::MadGateMultiplier;
    std::vector<CurvePoint> points; ///< ascending by value
    std::size_t kneeIndex = 0;
    double kneeValue = 0.0;
    KnobBounds safeBounds{};
};

/** Outcome of one sweep. */
struct GuardSweepResult
{
    std::vector<SweepCell> cells;
    std::vector<OperatingCurve> curves; ///< one per grid, grid order
    /** Knee picks folded over the default knob vector (the sweep-tuned
     *  static configuration). */
    TunedKnobs tunedKnobs{};
    /** Default tuner config with per-knob bounds replaced by the
     *  measured safe bounds (the self-tuned configuration). */
    AdaptiveTunerConfig tunerConfig{};
};

/**
 * Run every (grid value × scenario) cell across the ParallelRunner and
 * reduce to operating curves. @throws ErmsError on an empty config or
 * a knob value outside its valid domain.
 */
GuardSweepResult runGuardSweep(const GuardSweepConfig &config);

/** Pure reduction of one knob's cells into its operating curve
 *  (exposed for unit tests). Cells of other knobs are ignored. */
OperatingCurve reduceCurve(GuardKnob knob,
                           const std::vector<SweepCell> &cells,
                           double cost_weight, double safe_cost_slack);

/** Serialize config + result to a deterministic JSON document
 *  (common/json.hpp: shortest round-trip doubles, fixed key order). */
std::string sweepToJson(const GuardSweepConfig &config,
                        const GuardSweepResult &result);

} // namespace erms::tuning

#endif // ERMS_TUNING_SWEEP_HPP
