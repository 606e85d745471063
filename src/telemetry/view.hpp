/**
 * @file
 * TelemetryView — the one observation interface the closed-loop
 * controllers read. The scraped implementation answers every query from
 * the monitor's snapshot history (interval-sampled, span-sampled, stale
 * by up to one scrape interval plus the span sampling error),
 * reproducing the information model the paper's runtime actually
 * operates under: §5's monitoring loop decides scaling from scraped
 * Prometheus/Jaeger state, not from ground truth.
 *
 * Controllers accept an optional TelemetryView; with none they read the
 * Simulation itself, which implements this interface as the oracle
 * view: exact answers as of the last ended minute (observed rate,
 * cluster interference, the minute's end-to-end P95 and profiling
 * tails, live container counts), byte-identical to the pre-telemetry
 * code path.
 *
 * The query math lives in SnapshotTelemetryView, which answers every
 * TelemetryView question from an abstract snapshot stream. Decorators
 * that perturb the stream (FaultyTelemetryView in src/fault) reuse the
 * exact same math over their own visibleSnapshots(), so an injected
 * observability fault changes only what the controller *sees*, never
 * how the seen data is interpreted.
 */

#ifndef ERMS_TELEMETRY_VIEW_HPP
#define ERMS_TELEMETRY_VIEW_HPP

#include "model/interference.hpp"
#include "telemetry/monitor.hpp"

namespace erms::telemetry {

/**
 * Read-only observation surface for controllers. Scraped views answer
 * from the most recent scrape(s), the Simulation from the last ended
 * minute; neither reports the current instant's latencies.
 */
class TelemetryView
{
  public:
    virtual ~TelemetryView() = default;

    /** Observed arrival rate of a service (requests/minute); 0 until
     *  enough scrapes exist to form a rate. */
    virtual double observedRate(ServiceId service) const = 0;

    /** Cluster-average interference, averaged over host gauges of the
     *  latest scrape. */
    virtual Interference clusterInterference() const = 0;

    /** Estimated P95 end-to-end latency of a service over the latest
     *  scrape interval (ms); 0 when no sampled spans landed in it. */
    virtual double serviceP95Ms(ServiceId service) const = 0;

    /** Estimated P95 latency of one microservice over the latest
     *  scrape interval (ms); 0 when unobserved. */
    virtual double microserviceTailMs(MicroserviceId ms) const = 0;

    /** Container-count gauge of a microservice at the latest scrape;
     *  -1 when the series does not exist yet. */
    virtual int containerCount(MicroserviceId ms) const = 0;

    /** Age of the newest scrape relative to `now` (ms); returns a huge
     *  value when no scrape happened yet. */
    virtual double stalenessMs(SimTime now) const = 0;
};

/**
 * TelemetryView answered from a time-ascending snapshot stream. Rates
 * and interval quantiles are computed from the difference between the
 * two newest snapshots (Prometheus `rate()`/`histogram_quantile()` over
 * one scrape window); gauges come from the newest snapshot alone.
 *
 * Robustness of the delta math (these situations cannot arise from a
 * healthy SimMonitor, but a perturbed stream produces all of them):
 *  - counter/bucket regressions between snapshots clamp to a zero
 *    delta, the way Prometheus `rate()` treats counter resets;
 *  - a snapshot pair with non-increasing timestamps yields rate 0;
 *  - histogram series with missing or mismatched bucket layouts fall
 *    back to the newest snapshot's cumulative counts.
 */
class SnapshotTelemetryView : public TelemetryView
{
  public:
    double observedRate(ServiceId service) const override;
    Interference clusterInterference() const override;
    double serviceP95Ms(ServiceId service) const override;
    double microserviceTailMs(MicroserviceId ms) const override;
    int containerCount(MicroserviceId ms) const override;
    double stalenessMs(SimTime now) const override;

  protected:
    /** The snapshot stream queries are answered from (time-ascending;
     *  may be empty). Calls return the same vector until the stream
     *  grows, so one query may hold pointers from several calls. */
    virtual const std::vector<TelemetrySnapshot> &visibleSnapshots()
        const = 0;

  private:
    /** Newest snapshot, or nullptr before the first scrape. */
    const TelemetrySnapshot *latest() const;
    /** Second-newest snapshot, or nullptr. */
    const TelemetrySnapshot *previous() const;

    double histogramDeltaQuantile(const std::string &name,
                                  const Labels &labels, double q) const;
};

/**
 * TelemetryView over a SimMonitor's scrape history: the undisturbed
 * observability pipeline (every scrape lands, on time, unmodified).
 */
class ScrapedTelemetryView : public SnapshotTelemetryView
{
  public:
    /** The monitor must outlive the view. */
    explicit ScrapedTelemetryView(const SimMonitor &monitor);

  protected:
    const std::vector<TelemetrySnapshot> &visibleSnapshots() const override
    {
        return monitor_->snapshots();
    }

  private:
    const SimMonitor *monitor_;
};

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_VIEW_HPP
