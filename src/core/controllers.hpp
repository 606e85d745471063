/**
 * @file
 * Closed-loop controllers for the dynamic-workload experiments
 * (Fig. 13): baseline autoscalers that re-plan per minute from observed
 * workloads, and a reactive Firm-style controller that only responds
 * *after* observing SLA violations (the "late detection of bottleneck
 * microservices" behaviour the paper reports).
 */

#ifndef ERMS_CORE_CONTROLLERS_HPP
#define ERMS_CORE_CONTROLLERS_HPP

#include <functional>
#include <memory>

#include "baselines/baseline.hpp"
#include "market/market.hpp"
#include "sim/simulation.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/view.hpp"
#include "tuning/adaptive.hpp"

namespace erms {

/**
 * Every controller takes an optional TelemetryView and reads all its
 * observations — rates, interference, tail latencies, container counts —
 * through one TelemetryView per call. When one is passed they come from
 * scraped snapshots: interval-sampled, span-sampled and stale by up to
 * one scrape interval. With no view the controller reads the Simulation
 * it is called with, which is the oracle TelemetryView of the minute
 * that just ended, byte-identical to the pre-telemetry behaviour.
 */

/**
 * Wrap a baseline allocator into a per-minute autoscaler (GrandSLAm /
 * Rhythm in Fig. 13): observed rates feed the allocator, the resulting
 * plan is applied without priority scheduling.
 */
std::function<void(Simulation &, int)>
makeBaselineAutoscaler(
    std::shared_ptr<BaselineAllocator> allocator, BaselineContext context,
    std::vector<ServiceSpec> services, double workload_headroom = 1.1,
    std::shared_ptr<const telemetry::TelemetryView> view = nullptr);

/**
 * Reactive Firm-style controller. Each minute, for each service with an
 * observed P95:
 *  - above its SLA: the critical microservice (worst observed tail
 *    latency; the graph's root when none is observed) grows by
 *    ceil(30%) of its count, and every other microservice of the graph
 *    by ceil(10%), each by at least one container;
 *  - below 75% of its SLA: the microservice with the largest count
 *    gives back max(1, floor(10%)) of it, never going below one
 *    container.
 */
std::function<void(Simulation &, int)>
makeFirmReactiveController(
    const MicroserviceCatalog &catalog, std::vector<ServiceSpec> services,
    std::shared_ptr<const telemetry::TelemetryView> view = nullptr);

/**
 * Capacity-repair controller for fault-injection runs: each minute,
 * any microservice whose live container count fell below the planned
 * count (containers crashed and were not auto-restarted) is scaled
 * back up through the ordinary scaling path. This is the minimal
 * "react to capacity loss" loop; the full closed-loop autoscalers
 * subsume it because they re-apply a complete plan every minute.
 *
 * With a view, crash detection reads the scraped container-count gauge
 * (shared pools only; partitioned pools keep oracle reads — the gauge
 * tracks pool totals, not per-service partitions), so repair lags by
 * up to one scrape interval like a real Prometheus-driven operator.
 */
std::function<void(Simulation &, int)>
makeCapacityRepairController(
    GlobalPlan plan,
    std::shared_ptr<const telemetry::TelemetryView> view = nullptr);

/**
 * Controller registry by name — "erms" (a default-config ErmsController
 * owned by the returned closure), "grandslam"/"rhythm" (baseline
 * autoscalers at the dynamic-operation headroom of 1.2), or "firm"
 * (the reactive controller). All four observe through the same given
 * view, so the cross-controller resilience battery and the chaos
 * campaigns (docs/chaos_campaigns.md) can wrap any of them in the
 * identical guardrail stack. @throws ErmsError on an unknown name.
 */
std::function<void(Simulation &, int)>
makeControllerByName(
    const std::string &name, const MicroserviceCatalog &catalog,
    std::vector<ServiceSpec> services,
    std::shared_ptr<const telemetry::TelemetryView> view = nullptr);

/**
 * Knobs of the scaling guardrails wrapped around a controller by
 * makeGuardedController. Defaults keep NORMAL mode fully transparent:
 * with healthy telemetry the guarded controller is byte-identical to
 * the unguarded one (pinned by the chaos test suite).
 */
struct GuardrailConfig
{
    /** Max fractional up-step per cycle while rate-limited (the mode is
     *  not NORMAL, or the cycle's queries were doctored): a
     *  microservice may grow by at most ceil(before * fraction)
     *  containers (always at least one). */
    double maxScaleStepFraction = 0.5;
    /** FALLBACK over-provision: hold each managed microservice at
     *  ceil(last-known-good * factor) containers. */
    double fallbackOverProvisionFactor = 1.25;
    /** Each consecutive FALLBACK cycle adds this much to the
     *  over-provision factor: the longer the pipeline stays dark, the
     *  further the (invisible) workload may have drifted from the last
     *  good observation, so the margin grows with the blindness. */
    double fallbackEscalationPerCycle = 0.25;
    /** Ceiling of the escalated over-provision factor. */
    double fallbackMaxOverProvisionFactor = 2.5;
};

/**
 * Reject nonsensical guardrail combinations loudly at construction:
 * non-positive step fractions, an over-provision factor below 1 (a
 * fallback floor that *removes* capacity), negative escalation, or a
 * ceiling below the base factor
 * (`fallbackMaxOverProvisionFactor < fallbackOverProvisionFactor`).
 * @throws ErmsError naming the offending knob.
 */
void validateGuardrailConfig(const GuardrailConfig &config);

/** Tallies of guardrail interventions (the self-tuning loop reads
 *  these as feedback signals; benches read them as observability). */
struct GuardrailStats
{
    /** Cycles the wrapper ran (= inner controller invocations). */
    std::uint64_t cycles = 0;
    /** Cycles where limits applied (mode not NORMAL, or doctored
     *  queries). */
    std::uint64_t limitedCycles = 0;
    /** Up-steps clamped to the per-cycle step bound. */
    std::uint64_t upStepClamps = 0;
    /** Scale-downs reverted (every limited scale-down is). */
    std::uint64_t scaleDownReverts = 0;
    /** Container counts raised by the FALLBACK over-provision floor. */
    std::uint64_t fallbackHolds = 0;
};

/**
 * Wrap any minute controller with self-defending scaling guardrails
 * driven by a GuardedTelemetryView's degraded-mode state machine:
 *
 *  - NORMAL:   run the inner controller unmodified and record each
 *              managed microservice's count as last-known-good — unless
 *              its queries tripped the guard this cycle, which limits
 *              the cycle as in SUSPECT;
 *  - SUSPECT:  run the inner controller, then limit its decisions:
 *              up-steps bounded by `maxScaleStepFraction`, every
 *              scale-down reverted;
 *  - FALLBACK: SUSPECT's limits, plus a floor at each managed
 *              microservice's last-known-good count times an
 *              over-provision factor that escalates from
 *              `fallbackOverProvisionFactor` with every consecutive
 *              blind cycle (no floor before the first good cycle).
 *
 * Recovery re-validates through SUSPECT (see GuardedTelemetryView), so
 * one clean scrape after an incident resumes rate-limited — not
 * unconstrained — scaling. The wrapper owns the guard's cycle clock:
 * it calls guard->beginCycle(sim.now()) before the inner controller,
 * which must observe through the same guarded view.
 */
std::function<void(Simulation &, int)>
makeGuardedController(
    std::function<void(Simulation &, int)> inner,
    std::shared_ptr<telemetry::GuardedTelemetryView> guard,
    std::vector<MicroserviceId> managed, GuardrailConfig config = {});

/**
 * Live-retunable overload: the rails are read through the shared
 * pointer on every cycle, so an outer loop (makeSelfTuningController)
 * may adjust the fallback margin while the controller runs. Optional
 * `stats` receives intervention tallies (pass null to skip). The value
 * overload above forwards here with a private config copy, so both are
 * byte-identical for a fixed config.
 */
std::function<void(Simulation &, int)>
makeGuardedController(
    std::function<void(Simulation &, int)> inner,
    std::shared_ptr<telemetry::GuardedTelemetryView> guard,
    std::vector<MicroserviceId> managed,
    std::shared_ptr<GuardrailConfig> config,
    std::shared_ptr<GuardrailStats> stats = nullptr);

/**
 * Wrap a controller in the full self-tuning guard stack
 * (docs/self_tuning.md): the guarded controller above, plus an
 * AdaptiveGuardTuner closing the loop at controller cadence. Each
 * minute, *before* the guard's cycle advances, the decorator feeds the
 * tuner the previous cycle's signal deltas (guard rejection counters,
 * staleness verdicts, guardrail clamp tallies, fallback occupancy);
 * when a feedback rule fires, the new knob vector is applied live —
 * guard thresholds through GuardedTelemetryView::retune(), the
 * fallback margin through the shared rails (the escalation ceiling is
 * raised if a tuned factor would exceed it, so the rails stay valid).
 *
 * The tuner's current knobs are applied once at construction, making
 * the tuner authoritative over the corresponding guard/rail fields
 * (construct it with knobsFrom(guard->config(), ...) for a stack that
 * starts exactly at the static configuration).
 *
 * Transparency contract: with `tuner->config().enabled == false` — or
 * with an enabled tuner that never fires, e.g. over a clean stream —
 * the decorator is pure delegation and the run is byte-identical to
 * makeGuardedController with the same rails (pinned by the tuning test
 * suite).
 */
std::function<void(Simulation &, int)>
makeSelfTuningController(
    std::function<void(Simulation &, int)> inner,
    std::shared_ptr<telemetry::GuardedTelemetryView> guard,
    std::vector<MicroserviceId> managed,
    std::shared_ptr<tuning::AdaptiveGuardTuner> tuner,
    GuardrailConfig rails = {},
    std::shared_ptr<GuardrailStats> stats = nullptr);

/**
 * Which microservices a market tenant owns. Tenants must not share
 * microservices with each other (each tenant deploys its own
 * application instances); ownership is over shared pools, so market
 * enforcement applies to Priority/FcfsSharing plans (dedicated
 * NonSharing partitions are not scaled by the market layer).
 */
struct MarketTenantServices
{
    market::TenantId tenant = 0;
    std::vector<MicroserviceId> microservices;
};

/**
 * Wrap any minute controller with per-tenant resource caps from a
 * multi-tenant market (docs/market.md) — the same decorator shape as
 * makeGuardedController. Each minute is one allocation epoch:
 *
 *  1. the inner controller runs unmodified (Erms, a baseline
 *     autoscaler, or a guarded variant — anything);
 *  2. each tenant's *true demand* is the containers the inner
 *     controller just deployed across that tenant's microservices;
 *  3. the market turns true demands into declarations (per-tenant
 *     policy), settles credits, and emits per-tenant caps;
 *  4. any tenant deployed above its cap is scaled down to it,
 *     proportionally across its microservices (largest counts trimmed
 *     first, deterministic, never below one container per deployed
 *     microservice).
 *
 * The wrapper never scales *up* (hoarded cap surplus is charged to the
 * tenant's allocation integral but not physically deployed) and runs
 * pure integer arithmetic — no RNG draws, no extra events — so with
 * caps that never bind (capacity >= every tenant's demand) the wrapped
 * run is byte-identical to the unwrapped controller (pinned by the
 * market byte-identity tests).
 */
std::function<void(Simulation &, int)>
makeMarketController(std::function<void(Simulation &, int)> inner,
                     std::shared_ptr<market::TenantMarket> tenant_market,
                     std::vector<MarketTenantServices> tenants);

} // namespace erms

#endif // ERMS_CORE_CONTROLLERS_HPP
