#include "controllers.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "core/erms.hpp"

namespace erms {

std::function<void(Simulation &, int)>
makeBaselineAutoscaler(std::shared_ptr<BaselineAllocator> allocator,
                       BaselineContext context,
                       std::vector<ServiceSpec> services,
                       double workload_headroom,
                       std::shared_ptr<const telemetry::TelemetryView> view)
{
    ERMS_ASSERT(allocator != nullptr);
    ERMS_ASSERT(context.catalog != nullptr);
    return [allocator, context, services = std::move(services),
            workload_headroom, view](Simulation &sim, int) mutable {
        const telemetry::TelemetryView &seen =
            view != nullptr ? *view : sim;
        for (ServiceSpec &svc : services) {
            const double observed = seen.observedRate(svc.id);
            // Non-finite rates (a corrupted scrape) keep last workload.
            if (observed > 0.0 && std::isfinite(observed))
                svc.workload = observed * workload_headroom;
        }
        BaselineContext ctx = context;
        ctx.interference = seen.clusterInterference();
        // A NaN/Inf utilization would poison every latency estimate in
        // the allocator; fall back to the profiling-time interference.
        if (!finiteInterference(ctx.interference))
            ctx.interference = context.interference;
        const GlobalPlan plan = allocator->allocate(services, ctx);
        sim.applyPlan(plan);
    };
}

std::function<void(Simulation &, int)>
makeFirmReactiveController(const MicroserviceCatalog &catalog,
                           std::vector<ServiceSpec> services,
                           std::shared_ptr<const telemetry::TelemetryView> view)
{
    return [&catalog, services = std::move(services),
            view](Simulation &sim, int) {
        const telemetry::TelemetryView &seen =
            view != nullptr ? *view : sim;
        for (const ServiceSpec &svc : services) {
            const double p95 = seen.serviceP95Ms(svc.id);
            if (p95 <= 0.0 || !std::isfinite(p95))
                continue; // nothing observed, or a corrupt scrape

            if (p95 > svc.slaMs) {
                // Locate the critical component: the microservice with
                // the worst observed tail latency this minute. nodes()
                // starts at the root, which wins when no tail was seen.
                MicroserviceId critical = kInvalidMicroservice;
                double worst = -1.0;
                for (MicroserviceId id : svc.graph->nodes()) {
                    const double tail = seen.microserviceTailMs(id);
                    if (tail > worst) {
                        worst = tail;
                        critical = id;
                    }
                }
                // Bump the critical component hard and everything else in
                // the violating service a little (queues have built up
                // everywhere by the time Firm notices).
                for (MicroserviceId id : svc.graph->nodes()) {
                    const int current = sim.containerCount(id);
                    const double step = id == critical ? 0.30 : 0.10;
                    sim.setContainerCount(
                        id, current + std::max(1, static_cast<int>(
                                                      std::ceil(step *
                                                                current))));
                }
            } else if (p95 < 0.75 * svc.slaMs) {
                // Reclaim from the most-provisioned microservice.
                MicroserviceId fattest = kInvalidMicroservice;
                int most = 1;
                for (MicroserviceId id : svc.graph->nodes()) {
                    const int count = sim.containerCount(id);
                    if (count > most) {
                        most = count;
                        fattest = id;
                    }
                }
                if (fattest != kInvalidMicroservice) {
                    const int reduced = std::max(
                        1, most - std::max(1, static_cast<int>(
                                                  std::floor(0.10 * most))));
                    sim.setContainerCount(fattest, reduced);
                }
            }
        }
    };
}

std::function<void(Simulation &, int)>
makeCapacityRepairController(
    GlobalPlan plan, std::shared_ptr<const telemetry::TelemetryView> view)
{
    return [plan = std::move(plan), view](Simulation &sim, int) {
        const telemetry::TelemetryView &seen =
            view != nullptr ? *view : sim;
        if (plan.policy == SharingPolicy::NonSharing) {
            // Partitioned deployments: restore each service's dedicated
            // partition to its planned size (a no-op when intact).
            // Oracle reads even with a view: the container gauge tracks
            // whole shared pools, not per-service partitions.
            for (const auto &alloc : plan.services) {
                for (const auto &[ms, ms_alloc] : alloc.perMicroservice)
                    sim.setDedicatedContainerCount(ms, alloc.service,
                                                   ms_alloc.containers);
            }
            return;
        }
        for (const auto &[ms, count] : plan.containers) {
            // A scraped gauge that does not exist yet reads -1.
            int live = seen.containerCount(ms);
            if (live < 0)
                live = sim.containerCount(ms);
            if (live < count)
                sim.setContainerCount(ms, count);
        }
    };
}

std::function<void(Simulation &, int)>
makeControllerByName(const std::string &name,
                     const MicroserviceCatalog &catalog,
                     std::vector<ServiceSpec> services,
                     std::shared_ptr<const telemetry::TelemetryView> view)
{
    if (name == "erms") {
        // The ErmsController must outlive the autoscaler closure (which
        // captures it by reference); the outer closure owns it.
        auto controller =
            std::make_shared<ErmsController>(catalog, ErmsConfig{});
        auto inner = controller->makeAutoscaler(std::move(services),
                                                std::move(view));
        return [controller, inner = std::move(inner)](Simulation &sim,
                                                      int minute) {
            inner(sim, minute);
        };
    }
    if (name == "firm")
        return makeFirmReactiveController(catalog, std::move(services),
                                          std::move(view));
    BaselineContext context;
    context.catalog = &catalog;
    return makeBaselineAutoscaler(makeBaselineAllocator(name), context,
                                  std::move(services), 1.2,
                                  std::move(view));
}

std::function<void(Simulation &, int)>
makeGuardedController(std::function<void(Simulation &, int)> inner,
                      std::shared_ptr<telemetry::GuardedTelemetryView> guard,
                      std::vector<MicroserviceId> managed,
                      GuardrailConfig config)
{
    return makeGuardedController(
        std::move(inner), std::move(guard), std::move(managed),
        std::make_shared<GuardrailConfig>(config));
}

void
validateGuardrailConfig(const GuardrailConfig &config)
{
    if (!std::isfinite(config.maxScaleStepFraction) ||
        config.maxScaleStepFraction <= 0.0)
        throw ErmsError(
            "GuardrailConfig: maxScaleStepFraction must be positive "
            "(a zero step bound would freeze every rate-limited up-step)");
    if (!std::isfinite(config.fallbackOverProvisionFactor) ||
        config.fallbackOverProvisionFactor < 1.0)
        throw ErmsError(
            "GuardrailConfig: fallbackOverProvisionFactor must be >= 1 — "
            "a FALLBACK floor below last-known-good tears down capacity "
            "on evidence from a pipeline already judged untrustworthy");
    if (!std::isfinite(config.fallbackEscalationPerCycle) ||
        config.fallbackEscalationPerCycle < 0.0)
        throw ErmsError(
            "GuardrailConfig: fallbackEscalationPerCycle must be >= 0");
    if (!std::isfinite(config.fallbackMaxOverProvisionFactor) ||
        config.fallbackMaxOverProvisionFactor <
            config.fallbackOverProvisionFactor)
        throw ErmsError(
            "GuardrailConfig: fallbackMaxOverProvisionFactor is below "
            "fallbackOverProvisionFactor — the escalation ceiling would "
            "undercut the base margin on the very first blind cycle");
}

std::function<void(Simulation &, int)>
makeGuardedController(std::function<void(Simulation &, int)> inner,
                      std::shared_ptr<telemetry::GuardedTelemetryView> guard,
                      std::vector<MicroserviceId> managed,
                      std::shared_ptr<GuardrailConfig> shared_config,
                      std::shared_ptr<GuardrailStats> stats)
{
    ERMS_ASSERT(inner != nullptr);
    ERMS_ASSERT(guard != nullptr);
    ERMS_ASSERT(!managed.empty());
    ERMS_ASSERT(shared_config != nullptr);
    validateGuardrailConfig(*shared_config);
    struct State
    {
        std::map<MicroserviceId, int> lastGood;
        std::uint64_t consecutiveFallback = 0;
    };
    auto state = std::make_shared<State>();
    return [inner = std::move(inner), guard = std::move(guard),
            managed = std::move(managed),
            shared_config = std::move(shared_config),
            stats = std::move(stats), state](Simulation &sim, int minute) {
        const GuardrailConfig &config = *shared_config;
        if (stats != nullptr)
            ++stats->cycles;
        guard->beginCycle(sim.now());
        const telemetry::GuardMode mode = guard->mode();
        if (mode == telemetry::GuardMode::Fallback)
            ++state->consecutiveFallback;
        else
            state->consecutiveFallback = 0;

        const auto doctored = [&guard] {
            const telemetry::GuardStats &s = guard->stats();
            return s.rejectedBounds + s.rejectedOutliers +
                   s.clampedOutliers;
        };

        std::map<MicroserviceId, int> before;
        for (MicroserviceId ms : managed)
            before[ms] = sim.containerCount(ms);

        const std::uint64_t doctored_before = doctored();
        inner(sim, minute);
        // The mode machine only advances at beginCycle, but the inner
        // controller's queries may have tripped the guard *this* cycle:
        // a decision informed by doctored observations is not trusted
        // even though the machine still reads NORMAL.
        const bool clean_cycle = doctored() == doctored_before;

        const bool limited =
            mode != telemetry::GuardMode::Normal || !clean_cycle;
        if (limited && stats != nullptr)
            ++stats->limitedCycles;
        if (!limited) {
            // NORMAL + clean queries: fully transparent — the inner
            // controller's outcome stands and becomes last-known-good.
            for (MicroserviceId ms : managed)
                state->lastGood[ms] = sim.containerCount(ms);
            return;
        }

        // SUSPECT / FALLBACK (or a NORMAL cycle that tripped the
        // guard): the inner controller has already run — a degraded
        // pipeline usually carries *some* signal; stale rates during a
        // ramp still grow — but its decisions are treated as scale-up
        // hints only: up-steps are rate-limited and scale-downs
        // reverted, because the one catastrophic move corrupt telemetry
        // can cause is tearing down needed capacity. In FALLBACK the
        // allocation is additionally floored at last-known-good times
        // an over-provision factor that escalates with every
        // consecutive blind cycle: the longer the pipeline stays dark,
        // the further the invisible workload may have drifted.
        for (MicroserviceId ms : managed) {
            const int was = before[ms];
            const int now = sim.containerCount(ms);
            int target = now;
            if (now > was) {
                const int max_step = std::max(
                    1, static_cast<int>(std::ceil(
                           was * config.maxScaleStepFraction)));
                target = std::min(now, was + max_step);
                if (target < now && stats != nullptr)
                    ++stats->upStepClamps;
            } else if (now < was) {
                target = was; // hold: never shed capacity on doubt
                if (stats != nullptr)
                    ++stats->scaleDownReverts;
            }
            if (mode == telemetry::GuardMode::Fallback) {
                const auto it = state->lastGood.find(ms);
                if (it != state->lastGood.end()) {
                    const double factor = std::min(
                        config.fallbackMaxOverProvisionFactor,
                        config.fallbackOverProvisionFactor +
                            config.fallbackEscalationPerCycle *
                                static_cast<double>(
                                    state->consecutiveFallback - 1));
                    const int floor_count = static_cast<int>(
                        std::ceil(it->second * factor));
                    if (floor_count > target && stats != nullptr)
                        ++stats->fallbackHolds;
                    target = std::max(target, floor_count);
                }
            }
            if (target != now)
                sim.setContainerCount(ms, target);
        }
        // Doctored/suspect/fallback cycles never refresh last-known-good.
    };
}

namespace {

/** Push the tuner's knob vector into the live guard + rails pair. */
void
applyTunedKnobs(telemetry::GuardedTelemetryView &guard,
                GuardrailConfig &rails, const tuning::TunedKnobs &knobs)
{
    telemetry::GuardConfig guard_config = guard.config();
    guard_config.madGateMultiplier = knobs.madGateMultiplier;
    guard_config.maxStalenessMs = knobs.maxStalenessMs;
    guard_config.suspectBadCyclesToFallback =
        knobs.suspectBadCyclesToFallback;
    guard.retune(guard_config);
    rails.fallbackOverProvisionFactor = knobs.fallbackOverProvisionFactor;
    rails.fallbackEscalationPerCycle = knobs.fallbackEscalationPerCycle;
    // Keep the rails self-consistent: a tuned base factor must never
    // exceed the escalation ceiling (validateGuardrailConfig's rule).
    rails.fallbackMaxOverProvisionFactor =
        std::max(rails.fallbackMaxOverProvisionFactor,
                 knobs.fallbackOverProvisionFactor);
}

} // namespace

std::function<void(Simulation &, int)>
makeSelfTuningController(
    std::function<void(Simulation &, int)> inner,
    std::shared_ptr<telemetry::GuardedTelemetryView> guard,
    std::vector<MicroserviceId> managed,
    std::shared_ptr<tuning::AdaptiveGuardTuner> tuner,
    GuardrailConfig rails_config, std::shared_ptr<GuardrailStats> stats)
{
    ERMS_ASSERT(guard != nullptr);
    ERMS_ASSERT(tuner != nullptr);
    validateGuardrailConfig(rails_config);
    auto rails = std::make_shared<GuardrailConfig>(rails_config);
    if (stats == nullptr)
        stats = std::make_shared<GuardrailStats>();

    // The tuner is authoritative from the start: a resumed tuner
    // re-applies its learned knobs, a fresh one re-applies the static
    // configuration (a no-op).
    applyTunedKnobs(*guard, *rails, tuner->knobs());

    auto guarded = makeGuardedController(std::move(inner), guard,
                                         std::move(managed), rails, stats);

    // Previous-cycle counter snapshots for delta signals.
    struct Baseline
    {
        telemetry::GuardStats guard{};
        GuardrailStats rails{};
    };
    auto baseline = std::make_shared<Baseline>();
    return [guard = std::move(guard), rails = std::move(rails),
            stats = std::move(stats), tuner = std::move(tuner), baseline,
            guarded = std::move(guarded)](Simulation &sim, int minute) {
        if (tuner->config().enabled) {
            const telemetry::GuardStats &g = guard->stats();
            const GuardrailStats &r = *stats;
            tuning::TunerSignals signals;
            signals.softRejects =
                (g.rejectedOutliers + g.clampedOutliers) -
                (baseline->guard.rejectedOutliers +
                 baseline->guard.clampedOutliers);
            signals.hardRejects =
                g.rejectedBounds - baseline->guard.rejectedBounds;
            signals.staleCycles =
                g.staleCycles - baseline->guard.staleCycles;
            signals.upStepClamps =
                r.upStepClamps - baseline->rails.upStepClamps;
            signals.scaleDownReverts =
                r.scaleDownReverts - baseline->rails.scaleDownReverts;
            signals.fallbackHolds =
                r.fallbackHolds - baseline->rails.fallbackHolds;
            signals.inFallback =
                guard->mode() == telemetry::GuardMode::Fallback;
            baseline->guard = g;
            baseline->rails = r;
            if (tuner->observe(signals))
                applyTunedKnobs(*guard, *rails, tuner->knobs());
        }
        guarded(sim, minute);
    };
}

std::function<void(Simulation &, int)>
makeMarketController(std::function<void(Simulation &, int)> inner,
                     std::shared_ptr<market::TenantMarket> tenant_market,
                     std::vector<MarketTenantServices> tenants)
{
    ERMS_ASSERT(inner != nullptr);
    ERMS_ASSERT(tenant_market != nullptr);
    ERMS_ASSERT(tenants.size() == tenant_market->tenantCount());
    for (const MarketTenantServices &tenant : tenants) {
        ERMS_ASSERT(tenant.tenant < tenants.size());
        ERMS_ASSERT(!tenant.microservices.empty());
    }
    return [inner = std::move(inner),
            tenant_market = std::move(tenant_market),
            tenants = std::move(tenants)](Simulation &sim, int minute) {
        inner(sim, minute);

        // True demand = what the inner controller just deployed.
        std::vector<market::Units> wants(tenants.size(), 0);
        for (const MarketTenantServices &tenant : tenants)
            for (MicroserviceId ms : tenant.microservices)
                wants[tenant.tenant] += sim.containerCount(ms);

        const market::MarketEpoch epoch = tenant_market->runEpoch(wants);

        for (const MarketTenantServices &tenant : tenants) {
            const market::Units want = wants[tenant.tenant];
            // A tenant cannot run below one container per deployed
            // microservice, so tiny caps are floored there; the market
            // accounting still charges only the emitted cap.
            market::Units target = epoch.caps[tenant.tenant];
            if (want <= target)
                continue; // cap does not bind; never scale up to hoard

            std::vector<std::pair<MicroserviceId, int>> counts;
            market::Units deployed_floor = 0;
            for (MicroserviceId ms : tenant.microservices) {
                const int count = sim.containerCount(ms);
                if (count > 0) {
                    counts.emplace_back(ms, count);
                    ++deployed_floor;
                }
            }
            target = std::max(target, deployed_floor);

            // Trim the largest deployments first (ties to the earliest
            // listed one) until the tenant total meets its cap —
            // deterministic, exact, and floored at one container each.
            market::Units excess = want - target;
            while (excess > 0) {
                std::size_t biggest = counts.size();
                for (std::size_t i = 0; i < counts.size(); ++i) {
                    if (counts[i].second <= 1)
                        continue;
                    if (biggest == counts.size() ||
                        counts[i].second > counts[biggest].second)
                        biggest = i;
                }
                if (biggest == counts.size())
                    break; // everything at the one-container floor
                --counts[biggest].second;
                --excess;
            }
            for (const auto &[ms, count] : counts)
                if (count != sim.containerCount(ms))
                    sim.setContainerCount(ms, count);
        }
    };
}

} // namespace erms
