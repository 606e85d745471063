#include "monitor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "trace/span.hpp"

namespace erms::telemetry {

Labels
serviceLabels(ServiceId service)
{
    return {{kServiceLabel, std::to_string(service)}};
}

Labels
microserviceLabels(MicroserviceId ms)
{
    return {{kMicroserviceLabel, std::to_string(ms)}};
}

Labels
hostLabels(HostId host)
{
    return {{kHostLabel, std::to_string(host)}};
}

std::optional<std::uint32_t>
labelId(const Labels &labels, const std::string &key)
{
    const auto it = std::ranges::find(labels, key, &Labels::value_type::first);
    if (it == labels.end())
        return std::nullopt;
    return parseNumber<std::uint32_t>(it->second);
}

void
shiftHostLabel(Labels &labels, HostId offset)
{
    const std::optional<HostId> host = labelId(labels, kHostLabel);
    if (!host || offset == 0)
        return;
    const auto it =
        std::ranges::find(labels, kHostLabel, &Labels::value_type::first);
    it->second = std::to_string(*host + offset);
}

namespace {

/** Slot `id` of an id-indexed handle table, grown on demand. */
template <class T>
T &
slot(std::vector<T> &table, std::size_t id)
{
    if (id >= table.size())
        table.resize(id + 1);
    return table[id];
}

} // namespace

SimMonitor::SimMonitor(MonitorConfig config) : config_(std::move(config))
{
    ERMS_ASSERT(config_.scrapeIntervalSec > 0.0);
    ERMS_ASSERT(config_.spanSampleProbability >= 0.0 &&
                config_.spanSampleProbability <= 1.0);
    ERMS_ASSERT(!config_.latencyBucketsMs.empty());
}

bool
SimMonitor::sampleSpan(RequestId request) const
{
    return hashSampleRequest(request, config_.spanSampleProbability);
}

SimMonitor::ServiceSeries &
SimMonitor::serviceSeries(ServiceId service)
{
    ServiceSeries &series = slot(serviceSeries_, service);
    if (series.requests != nullptr)
        return series;
    const Labels labels = serviceLabels(service);
    series.requests = &registry_.counter(kRequestsTotal, labels);
    series.responses = &registry_.counter("erms_responses_total", labels);
    series.failures =
        &registry_.counter("erms_request_failures_total", labels);
    series.slaViolations =
        &registry_.counter("erms_sla_violations_total", labels);
    series.latency = &registry_.histogram(kRequestLatencyMs, labels,
                                          config_.latencyBucketsMs);
    return series;
}

SimMonitor::MicroserviceSeries &
SimMonitor::microserviceSeries(MicroserviceId ms)
{
    MicroserviceSeries &series = slot(msSeries_, ms);
    if (series.latency != nullptr)
        return series;
    const Labels labels = microserviceLabels(ms);
    series.latency = &registry_.histogram(kMsLatencyMs, labels,
                                          config_.latencyBucketsMs);
    series.retries = &registry_.counter("erms_retries_total", labels);
    series.hedges = &registry_.counter("erms_hedges_total", labels);
    series.timeouts = &registry_.counter("erms_timeouts_total", labels);
    series.transientFailures =
        &registry_.counter("erms_transient_failures_total", labels);
    series.crashFailures =
        &registry_.counter("erms_crash_failures_total", labels);
    series.containerCrashes =
        &registry_.counter("erms_container_crashes_total", labels);
    series.containerRestarts =
        &registry_.counter("erms_container_restarts_total", labels);
    series.containers = &registry_.gauge(kContainers, labels);
    series.queueDepth = &registry_.gauge("erms_queue_depth", labels);
    series.busyThreads = &registry_.gauge("erms_busy_threads", labels);
    return series;
}

SimMonitor::HostSeries &
SimMonitor::hostSeries(HostId host)
{
    HostSeries &series = slot(hostSeries_, host);
    if (series.cpuUtil != nullptr)
        return series;
    const Labels labels = hostLabels(host);
    series.cpuUtil = &registry_.gauge(kHostCpuUtil, labels);
    series.memUtil = &registry_.gauge(kHostMemUtil, labels);
    series.slowdownWindows =
        &registry_.counter("erms_slowdown_windows_total", labels);
    return series;
}

void
SimMonitor::onRequestArrival(ServiceId service)
{
    serviceSeries(service).requests->inc();
}

void
SimMonitor::onRequestComplete(ServiceId service, double latency_ms,
                              bool sla_violated, bool span_sampled)
{
    ServiceSeries &series = serviceSeries(service);
    series.responses->inc();
    if (sla_violated)
        series.slaViolations->inc();
    if (span_sampled)
        series.latency->observe(latency_ms);
}

void
SimMonitor::onRequestFailed(ServiceId service)
{
    ServiceSeries &series = serviceSeries(service);
    series.failures->inc();
    // A failed request violates its SLA by definition (cf.
    // SimMetrics::sloViolationRate).
    series.slaViolations->inc();
}

void
SimMonitor::onMicroserviceLatency(MicroserviceId ms, double latency_ms,
                                  bool span_sampled)
{
    if (span_sampled)
        microserviceSeries(ms).latency->observe(latency_ms);
}

void
SimMonitor::onRetry(MicroserviceId ms)
{
    microserviceSeries(ms).retries->inc();
}

void
SimMonitor::onHedge(MicroserviceId ms)
{
    microserviceSeries(ms).hedges->inc();
}

void
SimMonitor::onTimeout(MicroserviceId ms)
{
    microserviceSeries(ms).timeouts->inc();
}

void
SimMonitor::onTransientFailure(MicroserviceId ms)
{
    microserviceSeries(ms).transientFailures->inc();
}

void
SimMonitor::onCrashFailure(MicroserviceId ms)
{
    microserviceSeries(ms).crashFailures->inc();
}

void
SimMonitor::onContainerCrash(MicroserviceId ms)
{
    microserviceSeries(ms).containerCrashes->inc();
}

void
SimMonitor::onContainerRestart(MicroserviceId ms)
{
    microserviceSeries(ms).containerRestarts->inc();
}

void
SimMonitor::onSlowdownWindow(HostId host)
{
    hostSeries(host).slowdownWindows->inc();
}

void
SimMonitor::recordFaultSchedule(std::size_t crashes, std::size_t slowdowns)
{
    registry_.gauge("erms_fault_planned_crashes")
        .set(static_cast<double>(crashes));
    registry_.gauge("erms_fault_planned_slowdowns")
        .set(static_cast<double>(slowdowns));
}

void
SimMonitor::recordHostUtil(HostId host, double cpu_util, double mem_util)
{
    HostSeries &series = hostSeries(host);
    series.cpuUtil->set(cpu_util);
    series.memUtil->set(mem_util);
}

void
SimMonitor::recordDeployment(MicroserviceId ms, int containers,
                             std::size_t queue_depth, int busy_threads)
{
    MicroserviceSeries &series = microserviceSeries(ms);
    series.containers->set(static_cast<double>(containers));
    series.queueDepth->set(static_cast<double>(queue_depth));
    series.busyThreads->set(static_cast<double>(busy_threads));
}

void
SimMonitor::takeSnapshot(SimTime at)
{
    snapshots_.push_back(registry_.snapshot(at));
}

} // namespace erms::telemetry
