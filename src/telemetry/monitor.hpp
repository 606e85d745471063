/**
 * @file
 * SimMonitor — the online telemetry pipeline of one simulation run,
 * standing in for the paper's §5 monitoring loop (Prometheus counters +
 * Jaeger spans, scraped on an interval). The simulator pushes events
 * into the monitor's metric series as they happen; the simulator's
 * event queue calls takeSnapshot() every scrape interval, freezing all
 * series into a TelemetrySnapshot. Consumers (ScrapedTelemetryView,
 * exporters) only ever see those snapshots — stale, interval-sampled,
 * span-sampled — never the simulator's oracle state.
 *
 * Metric catalog (see docs/telemetry.md):
 *   erms_requests_total{service}            counter  (arrivals)
 *   erms_responses_total{service}           counter  (successes)
 *   erms_request_failures_total{service}    counter
 *   erms_sla_violations_total{service}      counter
 *   erms_request_latency_ms{service}        histogram (span-sampled)
 *   erms_ms_latency_ms{microservice}        histogram (span-sampled)
 *   erms_retries_total{microservice}        counter
 *   erms_hedges_total{microservice}         counter
 *   erms_timeouts_total{microservice}       counter
 *   erms_transient_failures_total{microservice} counter
 *   erms_crash_failures_total{microservice} counter
 *   erms_container_crashes_total{microservice}  counter
 *   erms_container_restarts_total{microservice} counter
 *   erms_slowdown_windows_total{host}       counter
 *   erms_host_cpu_util{host} / erms_host_mem_util{host}  gauge
 *   erms_containers{microservice}           gauge
 *   erms_queue_depth{microservice}          gauge
 *   erms_busy_threads{microservice}         gauge
 *   erms_fault_planned_crashes / _slowdowns gauge (schedule size)
 */

#ifndef ERMS_TELEMETRY_MONITOR_HPP
#define ERMS_TELEMETRY_MONITOR_HPP

#include <optional>
#include <string>

#include "telemetry/registry.hpp"

namespace erms::telemetry {

// The series readers look up (views, the fault layer, the shard
// merge) by name and entity label; SimMonitor registers under these.
inline const std::string kRequestsTotal{"erms_requests_total"};
inline const std::string kRequestLatencyMs{"erms_request_latency_ms"};
inline const std::string kMsLatencyMs{"erms_ms_latency_ms"};
inline const std::string kContainers{"erms_containers"};
inline const std::string kHostCpuUtil{"erms_host_cpu_util"};
inline const std::string kHostMemUtil{"erms_host_mem_util"};

inline const std::string kServiceLabel{"service"};
inline const std::string kMicroserviceLabel{"microservice"};
inline const std::string kHostLabel{"host"};

/** The labels of an entity's series: {service=id} and so on. */
Labels serviceLabels(ServiceId service);
Labels microserviceLabels(MicroserviceId ms);
Labels hostLabels(HostId host);

/** The id under the first `key` label of `labels`; nullopt when there
 *  is none or its value is not a whole unsigned decimal id. */
std::optional<std::uint32_t> labelId(const Labels &labels,
                                     const std::string &key);

/** Move a {host=h} label to h + offset (a shard-local host to its
 *  cluster-wide id); labels without a host id stay as they are. */
void shiftHostLabel(Labels &labels, HostId offset);

/** Scrape/sampling knobs of one monitor. */
struct MonitorConfig
{
    /** Scrape interval in simulated seconds (the paper's runtime polls
     *  its monitoring stack on the order of tens of seconds). */
    double scrapeIntervalSec = 30.0;
    /** Fraction of requests whose latency spans are recorded (Jaeger
     *  head sampling; §5.1 runs production tracing at low rates). */
    double spanSampleProbability = 0.10;
    /** Histogram boundaries for latency series (ms). */
    std::vector<double> latencyBucketsMs = defaultLatencyBucketsMs();
};

/**
 * Telemetry pipeline of one simulation run. Hook methods are cheap
 * (an id-indexed handle + one atomic add) and never draw randomness;
 * gauge refresh and snapshotting happen only at scrape instants. An
 * entity's series register on its first hook call, so a scrape after
 * that call starts a new schema version.
 */
class SimMonitor
{
  public:
    explicit SimMonitor(MonitorConfig config = {});

    const MonitorConfig &config() const { return config_; }
    MetricsRegistry &registry() { return registry_; }
    const MetricsRegistry &registry() const { return registry_; }

    /** Should this request's latency spans be recorded? Deterministic
     *  hash sampling; consumes no RNG state. */
    bool sampleSpan(RequestId request) const;

    // --- request-path hooks (called by the simulator) -----------------

    void onRequestArrival(ServiceId service);
    void onRequestComplete(ServiceId service, double latency_ms,
                           bool sla_violated, bool span_sampled);
    void onRequestFailed(ServiceId service);
    void onMicroserviceLatency(MicroserviceId ms, double latency_ms,
                               bool span_sampled);

    // --- fault / resilience hooks --------------------------------------

    void onRetry(MicroserviceId ms);
    void onHedge(MicroserviceId ms);
    void onTimeout(MicroserviceId ms);
    void onTransientFailure(MicroserviceId ms);
    void onCrashFailure(MicroserviceId ms);
    void onContainerCrash(MicroserviceId ms);
    void onContainerRestart(MicroserviceId ms);
    void onSlowdownWindow(HostId host);
    void recordFaultSchedule(std::size_t crashes, std::size_t slowdowns);

    // --- scrape-time state (pushed by the simulator) -------------------

    void recordHostUtil(HostId host, double cpu_util, double mem_util);
    void recordDeployment(MicroserviceId ms, int containers,
                          std::size_t queue_depth, int busy_threads);

    /** Freeze all series into a snapshot stamped with the given sim
     *  time and append it to snapshots(). */
    void takeSnapshot(SimTime at);

    /** All scrapes taken so far, time-ascending. */
    const std::vector<TelemetrySnapshot> &snapshots() const
    {
        return snapshots_;
    }

  private:
    struct ServiceSeries
    {
        Counter *requests = nullptr;
        Counter *responses = nullptr;
        Counter *failures = nullptr;
        Counter *slaViolations = nullptr;
        Histogram *latency = nullptr;
    };
    struct MicroserviceSeries
    {
        Histogram *latency = nullptr;
        Counter *retries = nullptr;
        Counter *hedges = nullptr;
        Counter *timeouts = nullptr;
        Counter *transientFailures = nullptr;
        Counter *crashFailures = nullptr;
        Counter *containerCrashes = nullptr;
        Counter *containerRestarts = nullptr;
        Gauge *containers = nullptr;
        Gauge *queueDepth = nullptr;
        Gauge *busyThreads = nullptr;
    };
    struct HostSeries
    {
        Gauge *cpuUtil = nullptr;
        Gauge *memUtil = nullptr;
        Counter *slowdownWindows = nullptr;
    };

    /** The entity's handles, registering its series on first use. */
    ServiceSeries &serviceSeries(ServiceId service);
    MicroserviceSeries &microserviceSeries(MicroserviceId ms);
    HostSeries &hostSeries(HostId host);

    MonitorConfig config_;
    MetricsRegistry registry_;
    std::vector<TelemetrySnapshot> snapshots_;
    /** Handles indexed by entity id; null handles: not registered yet. */
    std::vector<ServiceSeries> serviceSeries_;
    std::vector<MicroserviceSeries> msSeries_;
    std::vector<HostSeries> hostSeries_;
};

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_MONITOR_HPP
