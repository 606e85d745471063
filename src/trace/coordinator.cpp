#include "coordinator.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace erms {

InMemorySpanCollector::InMemorySpanCollector(double sampling_rate,
                                             std::uint64_t seed)
    : rate_(sampling_rate), rng_(seed)
{
    ERMS_ASSERT(sampling_rate >= 0.0 && sampling_rate <= 1.0);
}

bool
InMemorySpanCollector::sampleRequest(RequestId)
{
    return rng_.bernoulli(rate_);
}

void
InMemorySpanCollector::record(const CallSpan &span)
{
    spans_.push_back(span);
}

void
InMemorySpanCollector::clear()
{
    spans_.clear();
}

namespace {

/** Spans of one request grouped by caller, each caller's calls sorted by
 *  client send time. */
using CallsByCaller =
    std::unordered_map<MicroserviceId, std::vector<const CallSpan *>>;

CallsByCaller
groupByCaller(const std::vector<const CallSpan *> &request_spans)
{
    CallsByCaller grouped;
    for (const CallSpan *span : request_spans)
        grouped[span->caller].push_back(span);
    for (auto &[caller, calls] : grouped) {
        std::sort(calls.begin(), calls.end(),
                  [](const CallSpan *a, const CallSpan *b) {
                      return a->clientSend < b->clientSend;
                  });
    }
    return grouped;
}

/**
 * Assign stages to one caller's calls: a call overlapping the time span
 * of the current stage joins it (parallel); otherwise it starts the next
 * stage (§5.1: "if the client-side span of newly added calls overlaps the
 * span of existing calls, those calls are marked as parallel calls").
 */
std::vector<std::pair<const CallSpan *, int>>
assignStages(const std::vector<const CallSpan *> &calls)
{
    std::vector<std::pair<const CallSpan *, int>> staged;
    int stage = -1;
    SimTime stage_end = 0;
    for (const CallSpan *call : calls) {
        if (stage < 0 || call->clientSend >= stage_end) {
            ++stage;
            stage_end = call->clientReceive;
        } else {
            stage_end = std::max(stage_end, call->clientReceive);
        }
        staged.emplace_back(call, stage);
    }
    return staged;
}

/** Root entry span of a request (caller == invalid), or nullptr. */
const CallSpan *
findRootSpan(const std::vector<const CallSpan *> &request_spans)
{
    for (const CallSpan *span : request_spans) {
        if (span->caller == kInvalidMicroservice)
            return span;
    }
    return nullptr;
}

} // namespace

DependencyGraph
TracingCoordinator::extractGraph(ServiceId service,
                                 const std::vector<CallSpan> &spans)
{
    // Bucket spans by request, keeping only the target service.
    std::map<RequestId, std::vector<const CallSpan *>> by_request;
    for (const CallSpan &span : spans) {
        if (span.service == service)
            by_request[span.request].push_back(&span);
    }
    if (by_request.empty())
        throw GraphError("no spans recorded for service " +
                         std::to_string(service));

    // Establish the root from the first complete request.
    MicroserviceId root = kInvalidMicroservice;
    for (const auto &[request, request_spans] : by_request) {
        if (const CallSpan *root_span = findRootSpan(request_spans)) {
            root = root_span->callee;
            break;
        }
    }
    if (root == kInvalidMicroservice)
        throw GraphError("no entry span found for service " +
                         std::to_string(service));

    DependencyGraph graph(service, root);

    // Merge call structure across requests; later requests only add
    // microservices not seen before (static graphs per §7 assumption).
    for (const auto &[request, request_spans] : by_request) {
        const CallsByCaller grouped = groupByCaller(request_spans);
        // Walk top-down so parents exist before children.
        std::vector<MicroserviceId> frontier{root};
        while (!frontier.empty()) {
            const MicroserviceId parent = frontier.back();
            frontier.pop_back();
            auto it = grouped.find(parent);
            if (it == grouped.end())
                continue;
            for (const auto &[call, stage] : assignStages(it->second)) {
                if (!graph.contains(call->callee))
                    graph.addCall(parent, call->callee, stage);
                frontier.push_back(call->callee);
            }
        }
    }
    return graph;
}

std::vector<LatencyObservation>
TracingCoordinator::extractLatencies(const std::vector<CallSpan> &spans)
{
    std::map<std::pair<ServiceId, RequestId>, std::vector<const CallSpan *>>
        by_request;
    for (const CallSpan &span : spans)
        by_request[{span.service, span.request}].push_back(&span);

    std::vector<LatencyObservation> observations;
    for (const auto &[key, request_spans] : by_request) {
        const CallsByCaller grouped = groupByCaller(request_spans);
        for (const CallSpan *span : request_spans) {
            const MicroserviceId ms = span->callee;
            const SimTime own = serverResponseTime(*span);

            // Downstream contribution: sum over stages of the max
            // server response time within each (parallel) stage.
            SimTime downstream = 0;
            auto it = grouped.find(ms);
            if (it != grouped.end()) {
                const auto staged = assignStages(it->second);
                int current_stage = -1;
                SimTime stage_max = 0;
                for (const auto &[call, stage] : staged) {
                    if (stage != current_stage) {
                        downstream += stage_max;
                        stage_max = 0;
                        current_stage = stage;
                    }
                    stage_max =
                        std::max(stage_max, serverResponseTime(*call));
                }
                downstream += stage_max;
            }

            LatencyObservation obs;
            obs.service = key.first;
            obs.request = key.second;
            obs.microservice = ms;
            obs.serverReceive = span->serverReceive;
            const SimTime latency = own > downstream ? own - downstream : 0;
            obs.latencyMs = toMillis(latency);
            observations.push_back(obs);
        }
    }
    return observations;
}

std::unordered_map<MicroserviceId,
                   std::unordered_map<std::uint64_t, double>>
TracingCoordinator::extractWorkloads(const std::vector<CallSpan> &spans,
                                     double sampling_rate)
{
    ERMS_ASSERT(sampling_rate > 0.0 && sampling_rate <= 1.0);
    const double scale = 1.0 / sampling_rate;

    std::unordered_map<MicroserviceId,
                       std::unordered_map<std::uint64_t, double>>
        workloads;
    for (const CallSpan &span : spans) {
        const std::uint64_t minute = span.serverReceive / kMinuteUs;
        workloads[span.callee][minute] += scale;
    }
    return workloads;
}

} // namespace erms
