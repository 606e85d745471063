/**
 * @file
 * Observability-fault injection — the telemetry-path counterpart of the
 * data-plane fault layer in fault.hpp. The paper's §5 provisioning loop
 * assumes Jaeger/Prometheus always deliver fresh, complete latency
 * profiles; in production the observability path fails at least as
 * often as the data plane. This layer perturbs the SimMonitor →
 * ScrapedTelemetryView path with the failure classes that dominate real
 * monitoring stacks:
 *
 *  - dropped scrapes (a scrape never lands),
 *  - delayed scrapes (a snapshot becomes visible long after its stamp,
 *    so controllers act on stale state),
 *  - per-host metric blackouts (an exporter goes dark: the host's gauge
 *    series vanish from snapshots for a window),
 *  - span loss beyond the configured sampling floor (collector
 *    backpressure thins latency histograms),
 *  - outlier/corrupted latency samples (phantom mass lands in the
 *    overflow bucket, yanking interval quantiles to the top boundary),
 *  - partial counter scrapes (a counter shard is lost: cumulative
 *    counts under-report and later appear to regress),
 *  - clock skew/jitter on snapshot timestamps,
 *  - correlated AZ events (shared with the data plane via
 *    AzEventConfig in fault.hpp: the struck AZ's gauges black out and
 *    its scrape windows drop/delay while its hosts straggle),
 *  - per-series corruption (SeriesCorruptor: one service's counters
 *    lie — scaled, frozen, or negated — while the rest stay honest).
 *
 * Faults perturb only what controllers *see*: the simulator's request
 * path, the monitor's true series, and every oracle read are untouched,
 * so a run with telemetry faults active completes exactly the same
 * requests at exactly the same times as one without.
 *
 * Determinism contract (same as buildFaultSchedule): every decision is
 * a closed-form function of (config.seed, fault class, scrape index,
 * series identity) — no sequential RNG draws — so the same seed yields
 * the same perturbation no matter which queries run, in which order, or
 * on how many runner workers.
 */

#ifndef ERMS_FAULT_TELEMETRY_FAULT_HPP
#define ERMS_FAULT_TELEMETRY_FAULT_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "telemetry/view.hpp"

namespace erms {

/**
 * Knobs of the observability-fault injector. All rates default to zero:
 * a default-constructed config perturbs nothing, and the perturbed
 * snapshot stream is byte-identical to the true one.
 */
struct TelemetryFaultConfig
{
    /** Seed of the injector's own decision streams (independent of both
     *  SimConfig::seed and FaultConfig::seed). */
    std::uint64_t seed = 0x0b5eULL;

    // --- dropped scrapes -----------------------------------------------
    /** Probability that any single scrape never lands. */
    double scrapeDropProbability = 0.0;

    // --- delayed / stale snapshots -------------------------------------
    /** Probability that a (non-dropped) scrape arrives late. */
    double scrapeDelayProbability = 0.0;
    /** How late a delayed scrape becomes visible (ms). */
    double scrapeDelayMs = 45000.0;

    // --- per-host metric blackouts -------------------------------------
    /** Poisson rate of blackout-window starts (windows/minute), each
     *  silencing one uniformly chosen host's gauge series. */
    double blackoutsPerMinute = 0.0;
    /** Length of one blackout window (ms). */
    double blackoutDurationMs = 60000.0;

    // --- span loss beyond the sampling floor ---------------------------
    /** Upper bound on the fraction of cumulative latency-span mass lost
     *  at a scrape (each scrape loses a uniform fraction in
     *  [0, spanLossProbability]). */
    double spanLossProbability = 0.0;

    // --- outlier / corrupted latency samples ---------------------------
    /** Probability that a latency series at a scrape gains phantom
     *  overflow-bucket mass (a corrupted batch of spans). */
    double outlierProbability = 0.0;
    /** Phantom mass as a fraction of the series' cumulative count. */
    double outlierFraction = 0.15;

    // --- partial counter scrapes ---------------------------------------
    /** Probability that a counter series at a scrape under-reports
     *  (a lost shard / partial scrape). */
    double counterDropProbability = 0.0;
    /** Lower bound of the surviving fraction; the survivor fraction is
     *  uniform in [counterDropFloor, 0.9]. */
    double counterDropFloor = 0.25;

    // --- clock skew ----------------------------------------------------
    /** Constant offset added to every snapshot timestamp (ms; may be
     *  negative, clamped at time zero). */
    double clockSkewMs = 0.0;
    /** Additional per-scrape uniform jitter in [-clockJitterMs,
     *  +clockJitterMs]. */
    double clockJitterMs = 0.0;

    // --- correlated AZ events ------------------------------------------
    /** Observability-plane half of the correlated AZ events (see
     *  AzEventConfig in fault.hpp): for each event window, the struck
     *  AZ's host gauges black out, and every scrape stamped inside the
     *  window drops or delays with the event's own probabilities. Set
     *  the identical struct on FaultConfig::azEvents to correlate the
     *  data plane. */
    AzEventConfig azEvents;

    /** True when any fault class is active. */
    bool anyFaults() const;
};

/** One scheduled per-host metric blackout window. */
using BlackoutWindow = HostWindow;

/** Precomputed blackout + AZ-event schedule of one run. */
struct TelemetryFaultSchedule
{
    std::vector<BlackoutWindow> blackouts;
    /** Active AZ events (empty unless config.azEvents is active) — the
     *  identical list buildFaultSchedule derives on the data plane. */
    std::vector<AzEvent> azEvents;
};

/**
 * Generate the blackout schedule for one run: Poisson window starts
 * over [0, horizon) on a dedicated derived RNG stream, so changing any
 * per-scrape knob never shifts the blackout windows (and vice versa).
 * Active AZ events append one BlackoutWindow per host of the struck AZ
 * per event (the combined list is then sorted by (start, end, host));
 * with AZ events off the schedule is byte-identical to the pre-AZ
 * behaviour. Pure function of (config, host_count, horizon).
 */
TelemetryFaultSchedule
buildTelemetryFaultSchedule(const TelemetryFaultConfig &config,
                            int host_count, SimTime horizon);

/**
 * Per-series corruption: one target service's *counter* series lie
 * while every other series — and every series of every other service —
 * stays bit-identical to the honest stream. Models a poisoned metric
 * shard / bad client-library rollout confined to one deployment:
 *
 *  - Scaled:  reported cumulative counters are `scale` × the truth, so
 *             the service's rates under-report proportionally;
 *  - Frozen:  counters stop moving at their first scraped value, so the
 *             service's rates read zero while traffic keeps flowing;
 *  - Negated: counters run *backwards* from their first scraped value
 *             (clamped at zero), the pathological regression shape that
 *             stresses the view's counter-reset clamping.
 *
 * Frozen/Negated anchor on the first scrape in which a series appears,
 * computed over the whole input stream, so corrupt() stays a pure
 * function of (config, stream) — query-pattern independent, like every
 * other perturbation in this layer.
 */
struct SeriesCorruptionConfig
{
    enum class Mode
    {
        None,
        Scaled,
        Frozen,
        Negated,
    };

    Mode mode = Mode::None;
    /** Service whose counter series lie. */
    ServiceId service = 0;
    /** Scaled mode: reported counter = scale × the true cumulative. */
    double scale = 0.5;

    /** True when corruption is being injected. */
    bool active() const { return mode != Mode::None; }
};

/** Applies a SeriesCorruptionConfig to a snapshot stream. */
class SeriesCorruptor
{
  public:
    explicit SeriesCorruptor(SeriesCorruptionConfig config);

    const SeriesCorruptionConfig &config() const { return config_; }

    /** Corrupt the target service's counter series across the whole
     *  stream; with Mode::None the input passes through untouched.
     *  Only value words change; which ids are targeted is worked out
     *  once per run of scrapes sharing a schema. */
    std::vector<telemetry::TelemetrySnapshot>
    corrupt(std::vector<telemetry::TelemetrySnapshot> snaps) const;

  private:
    SeriesCorruptionConfig config_;
};

/** What the injector makes of one true scrape. */
struct PerturbedScrape
{
    /** The scrape never lands (the snapshot is left empty). */
    bool dropped = false;
    /** The scrape is visible once the newest true scrape is stamped at
     *  or after this time: the latest of its delay thresholds, 0 when
     *  no delay hit it. */
    SimTime visibleFrom = 0;
    /** The scrape as it lands. */
    telemetry::TelemetrySnapshot snapshot;
};

/**
 * What perturbation derives from a series schema rather than from one
 * scrape: each series' identity hash (the salt of its per-series
 * decisions) and the host whose gauge it is (blackouts), worked out
 * once per schema; and the subset schemas blackouts cut from a schema,
 * built once per (schema, dropped ids), so most perturbed scrapes share
 * the monitor's schema or an earlier subset. One owner, single-threaded.
 */
class PerturbationCache
{
  public:
    struct Facts
    {
        /** FNV-1a of each series' name and labels. */
        std::vector<std::uint64_t> salt;
        /** Host of each host-gauge series; kInvalidHost for the rest. */
        std::vector<HostId> gaugeHost;
    };

    /** The facts of `schema` (non-null). */
    const Facts &
    facts(const std::shared_ptr<const telemetry::SeriesSchema> &schema);

    /** `schema` without the ids in `dropped` (ascending, non-empty). */
    std::shared_ptr<const telemetry::SeriesSchema>
    subset(const std::shared_ptr<const telemetry::SeriesSchema> &schema,
           const std::vector<std::size_t> &dropped);

  private:
    /** Keys hold their schemas, so no other schema can take a cached
     *  address. */
    std::map<std::shared_ptr<const telemetry::SeriesSchema>, Facts> facts_;
    std::map<std::pair<std::shared_ptr<const telemetry::SeriesSchema>,
                       std::vector<std::size_t>>,
             std::shared_ptr<const telemetry::SeriesSchema>>
        subsets_;
};

/**
 * Applies a TelemetryFaultConfig to a true snapshot stream, producing
 * the perturbed stream an unlucky operator would see. Stateless beyond
 * its precomputed blackout schedule; perturbScrape() and perturb() are
 * pure functions of (config, schedule, true snapshots).
 */
class TelemetryFaultInjector
{
  public:
    TelemetryFaultInjector(TelemetryFaultConfig config, int host_count,
                           SimTime horizon);

    const TelemetryFaultConfig &config() const { return config_; }
    const TelemetryFaultSchedule &schedule() const { return schedule_; }

    /**
     * Perturb true scrape number `index` of a stream: whether it drops,
     * from when it is visible, and what it shows. Every fault class is
     * applied here and nowhere else. The series keep their order (some
     * are removed, none move), so the result stays sorted; it shares
     * the scrape's schema, or a cached subset of it when a blackout
     * removed series, and copies only value words.
     */
    PerturbedScrape perturbScrape(std::size_t index,
                                  const telemetry::TelemetrySnapshot &scrape,
                                  PerturbationCache &cache) const;

    /**
     * The perturbed snapshot stream visible once `true_snaps` have been
     * scraped: perturbScrape() over every scrape, keeping those not
     * dropped whose visibleFrom the newest true scrape has reached, in
     * scrape order. With no active faults the result equals the input.
     */
    std::vector<telemetry::TelemetrySnapshot>
    perturb(const std::vector<telemetry::TelemetrySnapshot> &true_snaps)
        const;

  private:
    bool activeAzEvent(SimTime at) const;

    TelemetryFaultConfig config_;
    TelemetryFaultSchedule schedule_;
};

/**
 * TelemetryView over a perturbed scrape history: what the controllers
 * consume when the observability path is failing. Decorates a
 * SimMonitor with a TelemetryFaultInjector and answers every query via
 * the shared SnapshotTelemetryView math over the perturbed stream.
 *
 * Each true scrape is perturbed once, when a query first finds it;
 * delayed scrapes wait aside until the newest true scrape reaches
 * their threshold. At every scrape generation the visible stream is
 * corruptor().corrupt(injector().perturb(scrapes so far)), whatever
 * the query pattern. This relies on the monitor's scrape stamps never
 * decreasing (asserted), so a scrape once visible stays visible.
 */
class FaultyTelemetryView : public telemetry::SnapshotTelemetryView
{
  public:
    /** The monitor must outlive the view. `host_count` and `horizon`
     *  size the blackout schedule (match the SimConfig). An optional
     *  SeriesCorruptionConfig composes per-series corruption *after*
     *  the injector: the corrupted stream is what the view's queries
     *  (and perturbedHistory()) answer from. */
    FaultyTelemetryView(const telemetry::SimMonitor &monitor,
                        TelemetryFaultConfig config, int host_count,
                        SimTime horizon,
                        SeriesCorruptionConfig corruption = {});

    const TelemetryFaultInjector &injector() const { return injector_; }
    const SeriesCorruptor &corruptor() const { return corruptor_; }

    /**
     * The full perturbed scrape history currently visible — the same
     * vector every query reads. Chaos campaigns archive this stream
     * next to their config so any run replays offline
     * (docs/chaos_campaigns.md); the cache tests pin that the same
     * scrape generation always returns bit-identical snapshots,
     * whatever query pattern built the cache, and that they equal the
     * whole-stream reference.
     */
    const std::vector<telemetry::TelemetrySnapshot> &
    perturbedHistory() const
    {
        return visibleSnapshots();
    }

  protected:
    /** Brought up to date whenever the monitor scraped since the last
     *  query: new true scrapes are perturbed, due delayed ones
     *  surface, and a configured corruptor reruns over the result. */
    const std::vector<telemetry::TelemetrySnapshot> &
    visibleSnapshots() const override;

  private:
    /** A perturbed scrape that has not surfaced yet. */
    struct HeldScrape
    {
        std::size_t index = 0;
        SimTime visibleFrom = 0;
        telemetry::TelemetrySnapshot snapshot;
    };

    const telemetry::SimMonitor *monitor_;
    TelemetryFaultInjector injector_;
    SeriesCorruptor corruptor_;
    /** True scrapes perturbed so far (the cache's generation). */
    mutable std::size_t perturbedCount_ = 0;
    /** Per-schema facts and subset schemas of the perturbed stream. */
    mutable PerturbationCache cache_;
    /** Delayed scrapes still in flight, in scrape order. */
    mutable std::vector<HeldScrape> held_;
    /** Surfaced scrapes in scrape order, and their scrape indices. */
    mutable std::vector<telemetry::TelemetrySnapshot> visible_;
    mutable std::vector<std::size_t> visibleIndex_;
    /** visible_ after the corruptor (only when one is configured). */
    mutable std::vector<telemetry::TelemetrySnapshot> corrupted_;
};

} // namespace erms

#endif // ERMS_FAULT_TELEMETRY_FAULT_HPP
