#include "erms.hpp"

#include <cmath>

#include "common/error.hpp"

namespace erms {

ErmsController::ErmsController(const MicroserviceCatalog &catalog,
                               ErmsConfig config)
    : catalog_(catalog), config_(config),
      planner_(catalog, config.capacity, config.solver)
{
    ERMS_ASSERT(config.workloadHeadroom >= 1.0);
}

GlobalPlan
ErmsController::plan(const std::vector<ServiceSpec> &services,
                     const Interference &itf) const
{
    return planner_.plan(services, itf, config_.policy);
}

std::function<void(Simulation &, int)>
ErmsController::makeAutoscaler(
    std::vector<ServiceSpec> services,
    std::shared_ptr<const telemetry::TelemetryView> view) const
{
    // The closure owns its service list; observed rates overwrite the
    // workload field each minute. A service whose observed P95 exceeded
    // its SLA gets a recovery boost: matching capacity to arrivals alone
    // would never drain the queue that built up, so provision surplus
    // until the tail is back under the SLA.
    return [this, services = std::move(services),
            view](Simulation &sim, int) mutable {
        const telemetry::TelemetryView &seen =
            view != nullptr ? *view : sim;
        for (ServiceSpec &svc : services) {
            const double observed = seen.observedRate(svc.id);
            // Keep the previous workload on no data *or* a corrupt
            // (non-finite) scrape — never plan against NaN arrivals.
            if (observed <= 0.0 || !std::isfinite(observed))
                continue;
            double factor = config_.workloadHeadroom;
            const double p95 = seen.serviceP95Ms(svc.id);
            if (std::isfinite(p95) && p95 > svc.slaMs)
                factor *= 1.6; // drain the backlog
            svc.workload = observed * factor;
        }
        // Best-effort degradation: if the SLA is model-infeasible at
        // the current interference (e.g. it tightened as load grew),
        // re-plan against a relaxed SLA rather than freezing the stale
        // deployment — an under-scaled cluster melts down, a best-effort
        // plan merely misses the target.
        Interference itf = seen.clusterInterference();
        // A non-finite utilization poisons every latency estimate in
        // the planner; degrade to a no-interference plan instead.
        if (!finiteInterference(itf))
            itf = Interference{};
        GlobalPlan next = plan(services, itf);
        if (!next.feasible) {
            std::vector<ServiceSpec> relaxed = services;
            for (double factor : {1.25, 1.6, 2.2}) {
                for (std::size_t i = 0; i < services.size(); ++i)
                    relaxed[i].slaMs = services[i].slaMs * factor;
                next = plan(relaxed, itf);
                if (next.feasible)
                    break;
            }
        }
        if (next.feasible)
            sim.applyPlan(next);
    };
}

} // namespace erms
