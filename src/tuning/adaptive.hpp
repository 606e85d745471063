/**
 * @file
 * AdaptiveGuardTuner — the online half of the self-tuning guardrails
 * (docs/self_tuning.md). The guard layer (telemetry/guarded_view.hpp +
 * makeGuardedController) ships one hand-picked knob set to every
 * deployment; this tuner closes the loop instead: a deterministic
 * controller-cadence feedback rule reads the guard's own observed
 * activity — rejection counters, staleness verdicts, up-step clamps,
 * fallback residency — and nudges the sensitivity knobs within
 * sweep-derived safe bounds (tuning/sweep.hpp).
 *
 * Evidence taxonomy (one category per control cycle):
 *
 *   - **soft-only**:  statistical-gate activity (outlier rejections or
 *                     high-side clamps) with zero bounds violations and
 *                     fresh scrapes. Sustained soft-only firing on an
 *                     otherwise healthy stream is the signature of an
 *                     over-tight gate punishing honest dynamics.
 *   - **hard-silent**: bounds violations (non-finite / negative /
 *                     absurd values — proof the stream lies) while the
 *                     statistical gate stayed quiet. The gate missed a
 *                     lie it should plausibly have flagged first.
 *   - **stale-only**:  scrapes older than the staleness window, no
 *                     value-level evidence, and the guard not already
 *                     in FALLBACK — a slow pipeline, not a lying one
 *                     (staleness observed while blind is an active
 *                     incident and must not widen the window).
 *   - **stale-noisy**: staleness co-occurring with value-level
 *                     rejections — the incident signature.
 *   - quiet / mixed:   no evidence, or conflicting evidence; every
 *                     streak resets.
 *
 * Feedback rules (priority-ordered; at most ONE fires per cycle, then
 * the tuner freezes for `cooldownCycles`):
 *
 *   1. escalate-fallback: fallback residency over the trailing window
 *      at or above `fallbackResidencyHigh` → raise the over-provision
 *      factor and its per-cycle escalation (blindness is lasting longer
 *      than the static margin assumed).
 *   2. relax-fallback: a full window with zero fallback residency while
 *      the factor sits above its initial value → step back toward the
 *      initial margin (never below it).
 *   3. loosen-gate: `overRejectCycles` consecutive soft-only cycles →
 *      multiply `madGateMultiplier` by `gateStep` (multiplicative
 *      increase on sustained over-rejection); when the guardrails also
 *      clamped controller up-steps during the streak, additionally
 *      raise `suspectBadCyclesToFallback` by one.
 *   4. tighten-gate: `missedLieCycles` consecutive hard-silent cycles →
 *      divide `madGateMultiplier` by `gateStep` and drop
 *      `suspectBadCyclesToFallback` by one (step-down on missed-lie
 *      evidence).
 *   5. widen-staleness: `staleCleanCycles` consecutive stale-only
 *      cycles → multiply `maxStalenessMs` by `stalenessStep`.
 *   6. narrow-staleness: `staleCleanCycles` consecutive stale-noisy
 *      cycles → divide `maxStalenessMs` by `stalenessStep`.
 *
 * Hysteresis contract (pinned by the tuning test suite): opposing rules
 * key on mutually exclusive evidence categories, alternating categories
 * reset each other's streaks, and every adjustment is followed by a
 * cooldown — so on any stationary evidence pattern each knob moves
 * monotonically until it hits a bound, never oscillating. A clean
 * stream produces no evidence at all, so the knobs provably never move
 * (the tuner is inert exactly where the guard is transparent).
 *
 * Determinism contract: observe() is a pure function of the signal
 * sequence — no clocks, no RNG — so a self-tuned run replays
 * byte-identically on any worker count.
 */

#ifndef ERMS_TUNING_ADAPTIVE_HPP
#define ERMS_TUNING_ADAPTIVE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/guarded_view.hpp"

namespace erms::tuning {

/** Closed interval a tuned knob may move within. */
struct KnobBounds
{
    double lo = 0.0;
    double hi = 0.0;
};

/** The live knob vector the tuner manages: the guard's sensitivity
 *  knobs plus the guardrails' fallback margin. Defaults mirror
 *  GuardConfig / GuardrailConfig so a default-constructed knob set is
 *  exactly the static configuration. */
struct TunedKnobs
{
    double madGateMultiplier = 8.0;
    double maxStalenessMs = 90000.0;
    int suspectBadCyclesToFallback = 1;
    double fallbackOverProvisionFactor = 1.25;
    double fallbackEscalationPerCycle = 0.25;
};

/** Field table of a knob vector (common/json.hpp), shared by the sweep
 *  export and the bench artifacts. */
template <class V>
void
describe(V &v, TunedKnobs &k)
{
    v.field("mad_gate_multiplier", k.madGateMultiplier);
    v.field("max_staleness_ms", k.maxStalenessMs);
    v.field("suspect_bad_cycles_to_fallback", k.suspectBadCyclesToFallback);
    v.field("fallback_over_provision_factor", k.fallbackOverProvisionFactor);
    v.field("fallback_escalation_per_cycle", k.fallbackEscalationPerCycle);
}

/** Initial knob vector matching an existing guard + guardrail pair. */
TunedKnobs knobsFrom(const telemetry::GuardConfig &guard,
                     double fallback_over_provision_factor,
                     double fallback_escalation_per_cycle);

/** Feedback-rule thresholds, step sizes, and safe bounds. The bounds
 *  default to wide hand-picked ranges; runGuardSweep() replaces them
 *  with the measured safe region around each operating-curve knee. */
struct AdaptiveTunerConfig
{
    /** Master switch: when false, observe() is a no-op and a self-tuned
     *  controller is byte-identical to the static guarded stack. */
    bool enabled = true;

    /** Cycles frozen after any adjustment (hysteresis). */
    int cooldownCycles = 3;
    /** Consecutive soft-only cycles before loosen-gate fires. */
    int overRejectCycles = 4;
    /** Consecutive hard-silent cycles before tighten-gate fires. */
    int missedLieCycles = 3;
    /** Consecutive stale-only (or stale-noisy) cycles before the
     *  staleness window widens (narrows). */
    int staleCleanCycles = 3;
    /** Trailing window (cycles) over which fallback residency is
     *  measured for rules 1–2. */
    int residencyWindow = 6;
    /** Residency at or above this fraction escalates the fallback
     *  margin. */
    double fallbackResidencyHigh = 0.5;

    /** Multiplicative step of the MAD gate multiplier. */
    double gateStep = 1.25;
    /** Multiplicative step of the staleness window. */
    double stalenessStep = 1.25;
    /** Additive step of the fallback over-provision factor (the
     *  escalation-per-cycle knob moves by half this step). */
    double fallbackStep = 0.25;

    KnobBounds madGate{2.0, 32.0};
    KnobBounds stalenessMs{45000.0, 360000.0};
    KnobBounds suspectToFallback{1.0, 4.0};
    KnobBounds fallbackFactor{1.0, 4.0};
    KnobBounds fallbackEscalation{0.05, 1.5};
};

/** @throws ErmsError on nonsensical thresholds, steps, or bounds. */
void validateTunerConfig(const AdaptiveTunerConfig &config);

/** Field table (common/json.hpp); campaign archives store it, each
 *  bound as a _lo/_hi pair. */
template <class V>
void
describe(V &v, AdaptiveTunerConfig &t)
{
    v.field("enabled", t.enabled);
    v.field("cooldown_cycles", t.cooldownCycles);
    v.field("over_reject_cycles", t.overRejectCycles);
    v.field("missed_lie_cycles", t.missedLieCycles);
    v.field("stale_clean_cycles", t.staleCleanCycles);
    v.field("residency_window", t.residencyWindow);
    v.field("fallback_residency_high", t.fallbackResidencyHigh);
    v.field("gate_step", t.gateStep);
    v.field("staleness_step", t.stalenessStep);
    v.field("fallback_step", t.fallbackStep);
    v.field("mad_gate_lo", t.madGate.lo);
    v.field("mad_gate_hi", t.madGate.hi);
    v.field("staleness_lo", t.stalenessMs.lo);
    v.field("staleness_hi", t.stalenessMs.hi);
    v.field("suspect_lo", t.suspectToFallback.lo);
    v.field("suspect_hi", t.suspectToFallback.hi);
    v.field("fallback_factor_lo", t.fallbackFactor.lo);
    v.field("fallback_factor_hi", t.fallbackFactor.hi);
    v.field("escalation_lo", t.fallbackEscalation.lo);
    v.field("escalation_hi", t.fallbackEscalation.hi);
}

/** Per-cycle deltas of the guard's observed activity, assembled by
 *  makeSelfTuningController from GuardStats / GuardrailStats counter
 *  differences between consecutive control cycles. */
struct TunerSignals
{
    /** Statistical-gate activity: rejectedOutliers + clampedOutliers. */
    std::uint64_t softRejects = 0;
    /** Sanity-bounds rejections (proof of a lying stream). */
    std::uint64_t hardRejects = 0;
    /** Stale cycles recorded by the guard (0 or 1 per control cycle). */
    std::uint64_t staleCycles = 0;
    /** Guardrail up-step clamps applied to the inner controller. */
    std::uint64_t upStepClamps = 0;
    /** Guardrail scale-down reversions. */
    std::uint64_t scaleDownReverts = 0;
    /** Guardrail fallback floor raises. */
    std::uint64_t fallbackHolds = 0;
    /** Guard mode is FALLBACK at observation time. */
    bool inFallback = false;
};

/** One knob adjustment, for trajectories in benches and archives. */
struct TunerAdjustment
{
    /** observe() call count when the rule fired (1-based). */
    std::uint64_t cycle = 0;
    /** Stable rule name (see file doc). */
    std::string rule;
    /** Knob vector after the adjustment. */
    TunedKnobs knobs;
};

/**
 * The deterministic feedback controller. Owns no guard state: callers
 * feed observed signal deltas through observe() once per control cycle
 * and re-apply knobs() whenever it returns true (see
 * makeSelfTuningController in core/controllers.hpp).
 */
class AdaptiveGuardTuner
{
  public:
    /** @throws ErmsError on an invalid config. */
    explicit AdaptiveGuardTuner(TunedKnobs initial,
                                AdaptiveTunerConfig config = {});

    /** Ingest one cycle of signals; returns true when a rule fired and
     *  the knob vector changed. */
    bool observe(const TunerSignals &signals);

    const TunedKnobs &knobs() const { return knobs_; }
    const TunedKnobs &initialKnobs() const { return initial_; }
    const AdaptiveTunerConfig &config() const { return config_; }
    const std::vector<TunerAdjustment> &adjustments() const
    {
        return adjustments_;
    }
    std::uint64_t cycles() const { return cycles_; }

  private:
    /** Commit `next` under `rule` if it differs from the current knob
     *  vector; starts the cooldown on commit. */
    bool commit(const char *rule, const TunedKnobs &next);

    TunedKnobs knobs_;
    TunedKnobs initial_;
    AdaptiveTunerConfig config_;
    std::vector<TunerAdjustment> adjustments_;

    std::uint64_t cycles_ = 0;
    int cooldown_ = 0;

    // Evidence streaks (see file doc).
    int softOnlyStreak_ = 0;
    int hardSilentStreak_ = 0;
    int staleOnlyStreak_ = 0;
    int staleNoisyStreak_ = 0;
    /** Up-step clamps accumulated over the current soft-only streak. */
    std::uint64_t clampsInStreak_ = 0;

    // Trailing fallback-residency ring of size residencyWindow.
    std::vector<char> residencyRing_;
    std::size_t residencyNext_ = 0;
    std::size_t residencyFill_ = 0;
    std::size_t residencyCount_ = 0; ///< fallback cycles in the ring
};

} // namespace erms::tuning

#endif // ERMS_TUNING_ADAPTIVE_HPP
