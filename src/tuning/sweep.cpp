#include "tuning/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runner/parallel_runner.hpp"

namespace erms::tuning {

namespace {

constexpr json::Name<GuardKnob> kGuardKnobNames[] = {
    {GuardKnob::MadGateMultiplier, "mad_gate_multiplier"},
    {GuardKnob::MaxStalenessMs, "max_staleness_ms"},
    {GuardKnob::SuspectBadCyclesToFallback, "suspect_bad_cycles_to_fallback"},
    {GuardKnob::FallbackOverProvisionFactor, "fallback_over_provision_factor"},
};

/** Validate one grid value against the knob's domain (mirrors
 *  validateGuardConfig / validateGuardrailConfig so a bad grid fails
 *  before any campaign runs, not mid-sweep on a worker thread). */
void
requireKnobValue(GuardKnob knob, double value)
{
    if (!std::isfinite(value))
        throw ErmsError(std::string("sweep grid for ") +
                        guardKnobName(knob) + " contains a non-finite value");
    switch (knob) {
    case GuardKnob::MadGateMultiplier:
    case GuardKnob::MaxStalenessMs:
        if (value <= 0.0)
            throw ErmsError(std::string("sweep grid for ") +
                            guardKnobName(knob) + " must be positive, got " +
                            json::numberText(value));
        break;
    case GuardKnob::SuspectBadCyclesToFallback:
        if (value < 1.0 || value != std::floor(value))
            throw ErmsError("sweep grid for suspect_bad_cycles_to_fallback "
                            "must hold integers >= 1, got " +
                            json::numberText(value));
        break;
    case GuardKnob::FallbackOverProvisionFactor:
        if (value < 1.0)
            throw ErmsError("sweep grid for fallback_over_provision_factor "
                            "must be >= 1, got " + json::numberText(value));
        break;
    }
}

/** Build the cell's campaign: the scenario config with exactly one knob
 *  moved, forced guarded and non-self-tuned. */
CampaignConfig
cellConfig(const SweepScenario &scenario, GuardKnob knob, double value)
{
    CampaignConfig config = scenario.config;
    config.guarded = true;
    config.selfTuned = false;
    switch (knob) {
    case GuardKnob::MadGateMultiplier:
        config.guard.madGateMultiplier = value;
        break;
    case GuardKnob::MaxStalenessMs:
        config.guard.maxStalenessMs = value;
        break;
    case GuardKnob::SuspectBadCyclesToFallback:
        config.guard.suspectBadCyclesToFallback = static_cast<int>(value);
        break;
    case GuardKnob::FallbackOverProvisionFactor:
        config.fallbackOverProvisionFactor = value;
        break;
    }
    return config;
}

SweepCell
measureCell(const SweepScenario &scenario, GuardKnob knob, double value)
{
    const CampaignResult result = runCampaign(cellConfig(scenario, knob, value));

    SweepCell cell;
    cell.knob = knob;
    cell.value = value;
    cell.scenario = scenario.label;
    cell.violationPct = result.violationPct;
    cell.meanContainers =
        result.minutes.empty()
            ? 0.0
            : result.containerMinutes /
                  static_cast<double>(result.minutes.size());
    const auto &g = result.guard;
    cell.rejectionRate =
        g.cycles == 0
            ? 0.0
            : static_cast<double>(g.rejectedBounds + g.rejectedOutliers +
                                  g.clampedOutliers) /
                  static_cast<double>(g.cycles);
    cell.fallbackResidency =
        g.cycles == 0 ? 0.0
                      : static_cast<double>(g.fallbackCycles) /
                            static_cast<double>(g.cycles);
    return cell;
}

/** Fold one curve's knee pick into the default knob vector. */
void
applyKnee(TunedKnobs &knobs, const OperatingCurve &curve)
{
    switch (curve.knob) {
    case GuardKnob::MadGateMultiplier:
        knobs.madGateMultiplier = curve.kneeValue;
        break;
    case GuardKnob::MaxStalenessMs:
        knobs.maxStalenessMs = curve.kneeValue;
        break;
    case GuardKnob::SuspectBadCyclesToFallback:
        knobs.suspectBadCyclesToFallback = static_cast<int>(curve.kneeValue);
        break;
    case GuardKnob::FallbackOverProvisionFactor:
        knobs.fallbackOverProvisionFactor = curve.kneeValue;
        break;
    }
}

/** Install one curve's measured safe bounds into the tuner config. */
void
applyBounds(AdaptiveTunerConfig &config, const OperatingCurve &curve)
{
    switch (curve.knob) {
    case GuardKnob::MadGateMultiplier:
        config.madGate = curve.safeBounds;
        break;
    case GuardKnob::MaxStalenessMs:
        config.stalenessMs = curve.safeBounds;
        break;
    case GuardKnob::SuspectBadCyclesToFallback:
        config.suspectToFallback = curve.safeBounds;
        break;
    case GuardKnob::FallbackOverProvisionFactor:
        config.fallbackFactor = curve.safeBounds;
        break;
    }
}

} // namespace

const char *
guardKnobName(GuardKnob knob)
{
    return json::nameOf(knob, kGuardKnobNames);
}

SweepScenario
scenarioFromArchive(const std::string &archive_json, std::string label)
{
    SweepScenario scenario;
    scenario.label = std::move(label);
    scenario.config = campaignConfigFromArchive(archive_json);
    return scenario;
}

OperatingCurve
reduceCurve(GuardKnob knob, const std::vector<SweepCell> &cells,
            double cost_weight, double safe_cost_slack)
{
    OperatingCurve curve;
    curve.knob = knob;

    // Group the knob's cells by value, preserving first-seen order
    // (cells arrive in (value, scenario) order, so this is grid order).
    std::vector<double> values;
    for (const SweepCell &cell : cells) {
        if (cell.knob != knob)
            continue;
        if (std::find(values.begin(), values.end(), cell.value) ==
            values.end())
            values.push_back(cell.value);
    }
    if (values.empty())
        throw ErmsError(std::string("reduceCurve: no cells for knob ") +
                        guardKnobName(knob));

    for (double value : values) {
        CurvePoint point;
        point.value = value;
        int n = 0;
        for (const SweepCell &cell : cells) {
            if (cell.knob != knob || cell.value != value)
                continue;
            point.violationPct += cell.violationPct;
            point.meanContainers += cell.meanContainers;
            point.rejectionRate += cell.rejectionRate;
            point.fallbackResidency += cell.fallbackResidency;
            ++n;
        }
        point.violationPct /= n;
        point.meanContainers /= n;
        point.rejectionRate /= n;
        point.fallbackResidency /= n;
        curve.points.push_back(point);
    }

    // Scalarize: min-max-normalize violation and container cost over the
    // curve (a flat metric contributes zero) and weight them.
    double vLo = curve.points.front().violationPct, vHi = vLo;
    double cLo = curve.points.front().meanContainers, cHi = cLo;
    for (const CurvePoint &p : curve.points) {
        vLo = std::min(vLo, p.violationPct);
        vHi = std::max(vHi, p.violationPct);
        cLo = std::min(cLo, p.meanContainers);
        cHi = std::max(cHi, p.meanContainers);
    }
    const double vSpan = vHi - vLo;
    const double cSpan = cHi - cLo;
    for (CurvePoint &p : curve.points) {
        const double vNorm = vSpan > 0.0 ? (p.violationPct - vLo) / vSpan : 0.0;
        const double cNorm =
            cSpan > 0.0 ? (p.meanContainers - cLo) / cSpan : 0.0;
        p.cost = vNorm + cost_weight * cNorm;
    }

    // Knee: cost-minimizing value; ties resolve to the first (grid
    // order), keeping the pick deterministic.
    curve.kneeIndex = 0;
    for (std::size_t i = 1; i < curve.points.size(); ++i)
        if (curve.points[i].cost < curve.points[curve.kneeIndex].cost)
            curve.kneeIndex = i;
    curve.kneeValue = curve.points[curve.kneeIndex].value;

    // Safe bounds: the contiguous run around the knee whose cost stays
    // within the slack. Sort indices by value first so "contiguous"
    // means contiguous on the knob axis even for unsorted grids.
    std::vector<std::size_t> order(curve.points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return curve.points[a].value < curve.points[b].value;
                     });
    const std::size_t kneePos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), curve.kneeIndex) -
        order.begin());
    const double limit = curve.points[curve.kneeIndex].cost + safe_cost_slack;
    std::size_t lo = kneePos, hi = kneePos;
    while (lo > 0 && curve.points[order[lo - 1]].cost <= limit)
        --lo;
    while (hi + 1 < order.size() && curve.points[order[hi + 1]].cost <= limit)
        ++hi;
    curve.safeBounds.lo = curve.points[order[lo]].value;
    curve.safeBounds.hi = curve.points[order[hi]].value;
    return curve;
}

GuardSweepResult
runGuardSweep(const GuardSweepConfig &config)
{
    if (config.scenarios.empty())
        throw ErmsError("runGuardSweep: no scenarios");
    if (config.grids.empty())
        throw ErmsError("runGuardSweep: no knob grids");
    if (!(config.costWeight >= 0.0) || !std::isfinite(config.costWeight))
        throw ErmsError("runGuardSweep: costWeight must be >= 0 and finite");
    if (!(config.safeCostSlack >= 0.0) || !std::isfinite(config.safeCostSlack))
        throw ErmsError("runGuardSweep: safeCostSlack must be >= 0 and finite");
    for (const KnobGrid &grid : config.grids) {
        if (grid.values.empty())
            throw ErmsError(std::string("runGuardSweep: empty grid for ") +
                            guardKnobName(grid.knob));
        for (double value : grid.values)
            requireKnobValue(grid.knob, value);
    }

    // Fan out every (grid, value, scenario) cell; runAll returns results
    // in task order regardless of worker count, so the cell vector — and
    // everything reduced from it — is byte-stable across runnerWorkers.
    std::vector<std::function<SweepCell()>> tasks;
    for (const KnobGrid &grid : config.grids)
        for (double value : grid.values)
            for (const SweepScenario &scenario : config.scenarios)
                tasks.push_back([&scenario, knob = grid.knob, value] {
                    return measureCell(scenario, knob, value);
                });

    ParallelRunner runner(RunnerOptions{config.runnerWorkers});
    GuardSweepResult result;
    result.cells = runner.runAll(std::move(tasks));

    for (const KnobGrid &grid : config.grids) {
        OperatingCurve curve = reduceCurve(grid.knob, result.cells,
                                           config.costWeight,
                                           config.safeCostSlack);
        applyKnee(result.tunedKnobs, curve);
        applyBounds(result.tunerConfig, curve);
        result.curves.push_back(std::move(curve));
    }

    // A one-point (or degenerate) safe range still has to admit the
    // knee and the tuner's step directions; widen nothing — bounds are
    // exactly what the sweep measured, the tuner just can't move a knob
    // whose safe range collapsed to a point.
    validateTunerConfig(result.tunerConfig);
    return result;
}

template <class V>
void
describe(V &v, SweepCell &c)
{
    v.field("knob", c.knob, kGuardKnobNames);
    v.field("value", c.value);
    v.field("scenario", c.scenario);
    v.field("violation_pct", c.violationPct);
    v.field("mean_containers", c.meanContainers);
    v.field("rejection_rate", c.rejectionRate);
    v.field("fallback_residency", c.fallbackResidency);
}

template <class V>
void
describe(V &v, CurvePoint &p)
{
    v.field("value", p.value);
    v.field("violation_pct", p.violationPct);
    v.field("mean_containers", p.meanContainers);
    v.field("rejection_rate", p.rejectionRate);
    v.field("fallback_residency", p.fallbackResidency);
    v.field("cost", p.cost);
}

template <class V>
void
describe(V &v, OperatingCurve &c)
{
    v.field("knob", c.knob, kGuardKnobNames);
    v.field("knee_index", c.kneeIndex);
    v.field("knee_value", c.kneeValue);
    v.field("safe_lo", c.safeBounds.lo);
    v.field("safe_hi", c.safeBounds.hi);
    v.field("points", c.points);
}

std::string
sweepToJson(const GuardSweepConfig &config, const GuardSweepResult &result)
{
    std::vector<std::string> scenarios;
    for (const SweepScenario &scenario : config.scenarios)
        scenarios.push_back(scenario.label);

    const auto range = [](const KnobBounds &b) {
        return std::vector<double>{b.lo, b.hi};
    };
    const AdaptiveTunerConfig &t = result.tunerConfig;
    json::Writer bounds;
    bounds.field("mad_gate", range(t.madGate));
    bounds.field("staleness_ms", range(t.stalenessMs));
    bounds.field("suspect_to_fallback", range(t.suspectToFallback));
    bounds.field("fallback_factor", range(t.fallbackFactor));
    bounds.field("fallback_escalation", range(t.fallbackEscalation));

    json::Writer doc;
    doc.field("cost_weight", config.costWeight);
    doc.field("safe_cost_slack", config.safeCostSlack);
    doc.field("scenarios", scenarios);
    doc.field("cells", result.cells);
    doc.field("curves", result.curves);
    doc.field("tuned_knobs", result.tunedKnobs);
    doc.field("tuner_bounds", bounds.take());
    return json::write(doc.take());
}

} // namespace erms::tuning
