#include "solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "scaling/merge.hpp"

namespace erms {

namespace {

struct BandChoice
{
    LatencyBand band{};
    Interval interval = Interval::AboveCutoff;
};

} // namespace

double
ServiceAllocation::totalResource() const
{
    double total = 0.0;
    for (const auto &[id, alloc] : perMicroservice)
        total += alloc.containers * alloc.resourceDemand;
    return total;
}

int
ServiceAllocation::totalContainers() const
{
    int total = 0;
    for (const auto &[id, alloc] : perMicroservice)
        total += alloc.containers;
    return total;
}

LatencyTargetSolver::LatencyTargetSolver(const MicroserviceCatalog &catalog,
                                         ClusterCapacity capacity,
                                         SolverOptions options)
    : catalog_(catalog), capacity_(capacity), options_(options)
{
    ERMS_ASSERT(options.maxRefinementPasses >= 1);
    ERMS_ASSERT(options.trustLatencyFactor >= 1.0);
    ERMS_ASSERT(options.cutoffBackstopFactor > 0.0);
}

ServiceAllocation
LatencyTargetSolver::solve(const ServiceScalingRequest &request,
                           const Interference &itf) const
{
    ServiceAllocation result;
    result.feasible = solveWith(
        request, itf, result.infeasibleReason,
        [&](std::size_t index, const MicroserviceAllocation &alloc) {
            result.perMicroservice.emplace(request.graph->nodes()[index],
                                           alloc);
        });
    result.service = request.graph->service();
    result.slaMs = request.slaMs;
    return result;
}

IndexedAllocation
LatencyTargetSolver::solveIndexed(const ServiceScalingRequest &request,
                                  const Interference &itf) const
{
    IndexedAllocation result;
    result.feasible = solveWith(
        request, itf, result.infeasibleReason,
        [&](std::size_t index, const MicroserviceAllocation &alloc) {
            if (index == 0)
                result.perIndex.reserve(request.graph->size());
            result.perIndex.push_back(alloc);
        });
    return result;
}

template <class Sized>
bool
LatencyTargetSolver::solveWith(const ServiceScalingRequest &request,
                               const Interference &itf,
                               std::string &infeasible_reason,
                               Sized &&sized) const
{
    ERMS_ASSERT_MSG(request.graph != nullptr, "request requires a graph");
    const DependencyGraph &graph = *request.graph;
    const std::vector<MicroserviceId> &nodes = graph.nodes();
    const std::size_t n = nodes.size();

    // Per-microservice inputs, indexed like nodes(). Workloads are
    // graph-derived unless the caller passed them. Pass 1 starts from
    // interval-2 bands, as the paper does (high-workload regime, cheaper
    // in resources).
    std::vector<double> derived;
    if (request.workloadOverride) {
        ERMS_ASSERT_MSG(request.workloadOverride->size() == n,
                        "workload override must be indexed like nodes()");
    } else {
        derived = graph.workloadsByIndex(request.workload);
    }
    const std::vector<double> &workloads =
        request.workloadOverride ? *request.workloadOverride : derived;
    std::vector<const PiecewiseLatencyModel *> models(n);
    std::vector<BandChoice> bands(n);
    std::vector<MergeParams> params(n);
    for (std::size_t i = 0; i < n; ++i) {
        const MicroserviceId id = nodes[i];
        models[i] = &catalog_.model(id);
        bands[i].band = models[i]->band(itf, Interval::AboveCutoff);
        params[i].R = dominantShare(catalog_.profile(id).resources, capacity_);
    }

    // §5.3.1 refinement, iterated to a fixed point: after each pass, a
    // target below a microservice's cutoff latency means it would really
    // operate in interval 1, so its band switches and the targets are
    // recomputed. The paper stops after two passes; we iterate until the
    // classification stabilizes (almost always 1-2 passes) with a small
    // cap, which also handles fitted models whose interval-2 intercepts
    // aggregate past a tight SLA (fall back to all-interval-1).
    MergeTree tree(graph);
    std::vector<double> targets;
    bool have_targets = false;
    for (int pass = 0; pass < options_.maxRefinementPasses; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
            params[i].A = bands[i].band.a * workloads[i];
            params[i].b = bands[i].band.b;
        }
        tree.evaluate(params);
        try {
            targets = tree.unfold(request.slaMs);
            have_targets = true;
        } catch (const InfeasibleError &err) {
            bool all_below = true;
            for (const BandChoice &choice : bands)
                all_below &= choice.interval == Interval::BelowCutoff;
            if (all_below) {
                infeasible_reason = err.what();
                return false;
            }
            // Retry at the conservative (light-load) end.
            for (std::size_t i = 0; i < n; ++i) {
                bands[i].interval = Interval::BelowCutoff;
                bands[i].band = models[i]->band(itf, Interval::BelowCutoff);
            }
            have_targets = false;
            continue;
        }
        // Switching is one-directional (as in §5.3.1): a microservice
        // whose target falls below its cutoff latency moves to the
        // interval-1 band and stays there. This guarantees termination
        // and avoids oscillation between band assignments.
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (bands[i].interval == Interval::AboveCutoff &&
                targets[i] < models[i]->cutoffLatency(itf)) {
                bands[i].interval = Interval::BelowCutoff;
                bands[i].band = models[i]->band(itf, Interval::BelowCutoff);
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    if (!have_targets) {
        infeasible_reason = "latency target computation diverged";
        return false;
    }

    // Convert targets to container counts. The final check below needs
    // each microservice's model-predicted latency at its allocation.
    std::vector<double> predicted(n);
    for (std::size_t i = 0; i < n; ++i) {
        const MicroserviceId id = nodes[i];
        const PiecewiseLatencyModel &model = *models[i];
        MicroserviceAllocation alloc;
        alloc.latencyTargetMs = targets[i];
        alloc.workload = workloads[i];
        alloc.band = bands[i].band;
        alloc.intervalUsed = bands[i].interval;
        alloc.resourceDemand = params[i].R;

        // Size containers by inverting the *piecewise* model at the
        // target: this guarantees the target is met under the model even
        // when the band assumed during merging disagrees with the
        // realized operating interval (§5.3.1 stops after two passes).
        double max_load = model.maxLoadForLatency(alloc.latencyTargetMs,
                                                  itf);
        if (max_load <= 0.0) {
            infeasible_reason =
                "latency target of " +
                std::to_string(alloc.latencyTargetMs) +
                "ms at microservice " + catalog_.name(id) +
                " lies below its model floor";
            return false;
        }
        // Linear bands only describe the neighbourhood of the knee; a
        // target bought far beyond it would sit past queueing saturation
        // where no finite latency exists. Trust the fitted steep
        // interval up to 3x the knee latency (a steep, accurate fit
        // authorizes only slightly-past-knee loads on its own), with an
        // absolute backstop at 1.15x the cutoff workload.
        const double sigma = model.cutoff(itf);
        const double trust_latency =
            options_.trustLatencyFactor * model.cutoffLatency(itf);
        double trust_load = model.maxLoadForLatency(trust_latency, itf);
        if (trust_load <= 0.0)
            trust_load = sigma;
        max_load = std::min({max_load, trust_load,
                             options_.cutoffBackstopFactor * sigma});
        alloc.containersFractional = alloc.workload / max_load;
        alloc.containers = std::max(
            1, static_cast<int>(std::ceil(alloc.containersFractional -
                                          1e-9)));
        predicted[i] = model.latency(
            alloc.workload / std::max(1, alloc.containers), itf);
        sized(i, alloc);
    }

    // Final validation: §5.3.1 allows at most two passes, so a very
    // tight SLA can leave interval-2 extrapolation claiming latencies
    // (even negative targets) no allocation can deliver. Reject the
    // solution unless the *model-predicted* end-to-end latency at the
    // deployed allocation meets the SLA.
    const double e2e = endToEndLatency(graph, predicted);
    if (e2e > request.slaMs * 1.01 + 1e-9) {
        infeasible_reason =
            "model-predicted end-to-end latency " + std::to_string(e2e) +
            "ms exceeds the SLA of " + std::to_string(request.slaMs) +
            "ms at the computed allocation";
        return false;
    }

    return true;
}

} // namespace erms
