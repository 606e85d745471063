/**
 * @file
 * GuardedTelemetryView — a self-defending decorator over any
 * TelemetryView. The paper's provisioning loop (§5, Eq. 14–19) trusts
 * its monitoring stack unconditionally; a controller acting on stale or
 * corrupted metrics can tear down exactly the containers it needs. The
 * guard inserts three defenses between the pipeline and the controller:
 *
 *  1. **Sanity bounds** — non-finite, negative, or absurdly large
 *     observations are rejected outright;
 *  2. **Outlier rejection** — per series, a value far outside the
 *     recent history (beyond `madGateMultiplier` median-absolute-
 *     deviations AND beyond `relativeGateFactor`× the running median)
 *     is rejected as corrupt;
 *  3. **Last-known-good memory** — every rejected query answers with
 *     the series' last accepted value instead of the corrupt one.
 *
 * A degraded-mode state machine summarizes pipeline health for the
 * controller guardrails (makeGuardedController in src/core):
 *
 *        bad                bad
 *   NORMAL ──► SUSPECT ──► FALLBACK ─┐ bad (streak resets)
 *     ▲  clean  │  ▲                 │
 *     └─────────┘  └───── SUSPECT ◄──┘ clean × recoveryCleanCycles
 *                   (re-validation before resuming normal scaling)
 *
 * A cycle is "bad" when the newest scrape is older than
 * `maxStalenessMs` or any query was rejected since the previous cycle.
 *
 * Transparency contract: over a clean stream every guard is inert —
 * each query returns the inner view's value bit-for-bit, and the mode
 * stays NORMAL (pinned by the chaos test suite across ≥ 20 seeds).
 * Zero is the inner view's no-data sentinel and always passes through
 * unmodified.
 */

#ifndef ERMS_TELEMETRY_GUARDED_VIEW_HPP
#define ERMS_TELEMETRY_GUARDED_VIEW_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/view.hpp"

namespace erms::telemetry {

class MetricsRegistry;

/** Health of the observability pipeline as judged by the guard. */
enum class GuardMode
{
    Normal,   ///< telemetry trusted; controllers scale freely
    Suspect,  ///< one bad cycle: rate-limit scaling, no scale-downs
    Fallback, ///< telemetry untrusted: hold/over-provision last good
};

/** Stable lowercase name of a guard mode ("normal"/"suspect"/
 *  "fallback") — the spelling pinned in golden tables and campaign
 *  archives. */
const char *guardModeName(GuardMode mode);

/** Knobs of the guard. Defaults are deliberately conservative so that
 *  clean streams never trip a gate (the transparency contract). */
struct GuardConfig
{
    /** Newest-scrape age beyond which a cycle is bad (ms). Three
     *  missed 30 s scrapes with the default monitor interval. */
    double maxStalenessMs = 90000.0;
    /** Sanity ceiling for observed rates (requests/minute). */
    double maxRateRpm = 1.0e7;
    /** Sanity ceiling for latency observations (ms). */
    double maxLatencyMs = 60000.0;
    /** Sanity ceiling for interference utilizations. */
    double maxInterferenceUtil = 4.0;
    /** MAD gate: reject when |x - median| > multiplier * MAD ... */
    double madGateMultiplier = 8.0;
    /** ... AND x is beyond factor× (or 1/factor×) the median. */
    double relativeGateFactor = 3.0;
    /** Ring size of the per-series accepted-value history. */
    std::size_t outlierHistory = 8;
    /** Accepted values before the MAD gate arms. With 2..N-1 samples
     *  the relative-ratio gate stands alone (MAD is meaningless on a
     *  couple of points, but a several-fold jump is still suspect). */
    std::size_t outlierMinHistory = 5;
    /** Consecutive bad cycles tolerated in SUSPECT before FALLBACK. */
    int suspectBadCyclesToFallback = 1;
    /** Consecutive clean cycles in FALLBACK before re-validation
     *  (FALLBACK → SUSPECT; one more clean cycle reaches NORMAL). */
    int recoveryCleanCycles = 2;
};

/**
 * Reject nonsensical knob combinations loudly at construction time
 * instead of silently accepting a guard that cannot work: history
 * depths below 2, an arming threshold above the ring it arms on
 * (`outlierMinHistory > outlierHistory`), non-positive gate multipliers
 * or sanity ceilings, a relative gate at or below 1 (which would flag
 * every value), and state-machine thresholds below one cycle.
 * @throws ErmsError naming the offending knob.
 */
void validateGuardConfig(const GuardConfig &config);

/** Field table (common/json.hpp); campaign archives store it. */
template <class V>
void
describe(V &v, GuardConfig &g)
{
    v.field("max_staleness_ms", g.maxStalenessMs);
    v.field("max_rate_rpm", g.maxRateRpm);
    v.field("max_latency_ms", g.maxLatencyMs);
    v.field("max_interference_util", g.maxInterferenceUtil);
    v.field("mad_gate_multiplier", g.madGateMultiplier);
    v.field("relative_gate_factor", g.relativeGateFactor);
    v.field("outlier_history", g.outlierHistory);
    v.field("outlier_min_history", g.outlierMinHistory);
    v.field("suspect_bad_cycles_to_fallback", g.suspectBadCyclesToFallback);
    v.field("recovery_clean_cycles", g.recoveryCleanCycles);
}

/** Tallies of guard activity (test/bench observability). */
struct GuardStats
{
    std::uint64_t cycles = 0;
    std::uint64_t staleCycles = 0;
    std::uint64_t suspectCycles = 0;
    std::uint64_t fallbackCycles = 0;
    std::uint64_t rejectedBounds = 0;
    std::uint64_t rejectedOutliers = 0;
    /** High-side outliers served as the relative-gate ceiling instead
     *  of the raw spike (fail-safe: err high, never low). */
    std::uint64_t clampedOutliers = 0;
    std::uint64_t substitutedLastGood = 0;
    /** Degraded-mode state-machine transitions (any edge). */
    std::uint64_t transitions = 0;
};

/**
 * The self-defending view. Not thread-safe (like the simulator it
 * observes); query methods are const but maintain mutable per-series
 * memory, as the inner views maintain mutable snapshot caches.
 */
class GuardedTelemetryView : public TelemetryView
{
  public:
    /** The inner view must outlive the guard. */
    explicit GuardedTelemetryView(
        std::shared_ptr<const TelemetryView> inner,
        GuardConfig config = {});

    /**
     * Advance the state machine at the start of one control cycle
     * (call once per controller invocation, before any queries). The
     * verdict combines the inner view's staleness at `now` with the
     * rejections recorded since the previous cycle.
     */
    void beginCycle(SimTime now);

    /**
     * Replace the guard's knobs live (the self-tuning loop in
     * core/controllers.cpp applies AdaptiveGuardTuner decisions through
     * here). The new config is validated like at construction; the
     * history depth `outlierHistory` is structural (per-series rings
     * are sized by it) and must not change. Per-series memory and the
     * state machine carry over — retuning adjusts thresholds, it does
     * not forget what the guard has learned.
     * @throws ErmsError on an invalid config or a changed history depth.
     */
    void retune(const GuardConfig &updated);

    /**
     * Export guard internals as first-class telemetry: per-series-kind
     * rejection counters (`erms_guard_rejections_total` labelled by
     * series kind and reason), a state-transition counter per edge plus
     * a total (`erms_guard_transitions_total`), and gauges for the
     * current mode and lifetime fallback residency
     * (`erms_guard_mode`, `erms_guard_fallback_residency`). All series
     * register eagerly here (registration order is irrelevant —
     * snapshots sort by name/labels); recording is off-path until bound,
     * so unbound guards behave byte-identically to before this hook
     * existed. The registry must outlive the guard.
     */
    void bindMetrics(MetricsRegistry &registry);

    GuardMode mode() const { return mode_; }
    const GuardStats &stats() const { return stats_; }
    const GuardConfig &config() const { return config_; }

    // --- TelemetryView --------------------------------------------------

    double observedRate(ServiceId service) const override;
    Interference clusterInterference() const override;
    double serviceP95Ms(ServiceId service) const override;
    double microserviceTailMs(MicroserviceId ms) const override;
    int containerCount(MicroserviceId ms) const override;
    double stalenessMs(SimTime now) const override;

  private:
    /** Per-series guard memory: accepted-value ring + last good. */
    struct SeriesGuard
    {
        std::vector<double> history; ///< ring of accepted values
        std::size_t next = 0;
        bool hasLastGood = false;
        double lastGood = 0.0;
    };

    /** Series key: query kind disambiguator + entity id. */
    using SeriesKey = std::pair<int, std::uint64_t>;

    /** Validate one observation; returns the accepted value or the
     *  series' last known good (0 when none exists yet). The outlier
     *  gate is skipped for series whose honest dynamics are step
     *  changes (container counts). */
    double guardValue(SeriesKey key, double x, double max_bound,
                      bool outlier_gate = true) const;

    /** Reasons a value can be doctored (metric label + counter index). */
    enum class RejectReason
    {
        Bounds = 0,
        Outlier = 1,
        Clamp = 2,
    };

    /** Registered metric handles (null until bindMetrics). */
    struct BoundMetrics;

    /** Record one rejection into the bound registry (no-op unbound). */
    void recordReject(int kind, RejectReason reason) const;

    mutable std::map<SeriesKey, SeriesGuard> series_;
    mutable GuardStats stats_;
    mutable std::uint64_t cycleRejects_ = 0;

    std::shared_ptr<const TelemetryView> inner_;
    GuardConfig config_;
    GuardMode mode_ = GuardMode::Normal;
    int badStreak_ = 0;   ///< consecutive bad cycles in SUSPECT
    int cleanStreak_ = 0; ///< consecutive clean cycles in FALLBACK
    std::shared_ptr<BoundMetrics> metrics_; ///< null when unbound
};

} // namespace erms::telemetry

#endif // ERMS_TELEMETRY_GUARDED_VIEW_HPP
