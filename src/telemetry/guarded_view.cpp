#include "guarded_view.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/registry.hpp"

namespace erms::telemetry {

namespace {

// Series-key kinds (first element of SeriesKey).
constexpr int kRate = 0;
constexpr int kServiceP95 = 1;
constexpr int kMsTail = 2;
constexpr int kContainerCount = 3;
constexpr int kItfCpu = 4;
constexpr int kItfMem = 5;

constexpr int kSeriesKinds = 6;
constexpr int kRejectReasons = 3;

/** Stable label values of the series kinds above. */
constexpr const char *kSeriesKindNames[kSeriesKinds] = {
    "rate",       "service_p95",      "ms_tail",
    "containers", "interference_cpu", "interference_mem",
};

constexpr const char *kRejectReasonNames[kRejectReasons] = {
    "bounds",
    "outlier",
    "clamp",
};

/** State-machine edges the guard can take (see beginCycle). */
constexpr int kTransitionEdges = 4;
constexpr const char *kTransitionNames[kTransitionEdges][2] = {
    {"normal", "suspect"},
    {"suspect", "normal"},
    {"suspect", "fallback"},
    {"fallback", "suspect"},
};

/** Median of a small scratch vector (sorted in place). */
double
medianOf(std::vector<double> &values)
{
    ERMS_ASSERT(!values.empty());
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

const char *
guardModeName(GuardMode mode)
{
    switch (mode) {
    case GuardMode::Normal:
        return "normal";
    case GuardMode::Suspect:
        return "suspect";
    case GuardMode::Fallback:
        return "fallback";
    }
    return "unknown";
}

void
validateGuardConfig(const GuardConfig &config)
{
    if (config.outlierHistory < 2)
        throw ErmsError("GuardConfig: outlierHistory must be >= 2 "
                        "(a one-slot ring has no history to gate on)");
    if (config.outlierMinHistory < 2)
        throw ErmsError("GuardConfig: outlierMinHistory must be >= 2");
    if (config.outlierMinHistory > config.outlierHistory)
        throw ErmsError(
            "GuardConfig: outlierMinHistory exceeds outlierHistory — the "
            "MAD gate would wait for more samples than the ring retains "
            "and never arm");
    if (!std::isfinite(config.maxStalenessMs) ||
        config.maxStalenessMs <= 0.0)
        throw ErmsError(
            "GuardConfig: maxStalenessMs must be positive and finite");
    if (!std::isfinite(config.maxRateRpm) || config.maxRateRpm <= 0.0)
        throw ErmsError(
            "GuardConfig: maxRateRpm must be positive and finite");
    if (!std::isfinite(config.maxLatencyMs) || config.maxLatencyMs <= 0.0)
        throw ErmsError(
            "GuardConfig: maxLatencyMs must be positive and finite");
    if (!std::isfinite(config.maxInterferenceUtil) ||
        config.maxInterferenceUtil <= 0.0)
        throw ErmsError(
            "GuardConfig: maxInterferenceUtil must be positive and finite");
    if (!std::isfinite(config.madGateMultiplier) ||
        config.madGateMultiplier <= 0.0)
        throw ErmsError(
            "GuardConfig: madGateMultiplier must be positive and finite");
    if (!std::isfinite(config.relativeGateFactor) ||
        config.relativeGateFactor <= 1.0)
        throw ErmsError(
            "GuardConfig: relativeGateFactor must be > 1 (a factor at or "
            "below 1 flags every honest value as an outlier)");
    if (config.suspectBadCyclesToFallback < 1)
        throw ErmsError(
            "GuardConfig: suspectBadCyclesToFallback must be >= 1");
    if (config.recoveryCleanCycles < 1)
        throw ErmsError("GuardConfig: recoveryCleanCycles must be >= 1");
}

/** Metric handles registered by bindMetrics (see guarded_view.hpp). */
struct GuardedTelemetryView::BoundMetrics
{
    Counter *rejects[kSeriesKinds][kRejectReasons] = {};
    Counter *transitions[kTransitionEdges] = {};
    Counter *transitionsTotal = nullptr;
    Gauge *mode = nullptr;
    Gauge *fallbackResidency = nullptr;
};

GuardedTelemetryView::GuardedTelemetryView(
    std::shared_ptr<const TelemetryView> inner, GuardConfig config)
    : inner_(std::move(inner)), config_(config)
{
    ERMS_ASSERT(inner_ != nullptr);
    validateGuardConfig(config_);
}

void
GuardedTelemetryView::retune(const GuardConfig &updated)
{
    validateGuardConfig(updated);
    if (updated.outlierHistory != config_.outlierHistory)
        throw ErmsError(
            "GuardedTelemetryView::retune: outlierHistory is structural "
            "(per-series rings are sized by it) and cannot change live");
    config_ = updated;
}

void
GuardedTelemetryView::bindMetrics(MetricsRegistry &registry)
{
    auto bound = std::make_shared<BoundMetrics>();
    for (int kind = 0; kind < kSeriesKinds; ++kind)
        for (int reason = 0; reason < kRejectReasons; ++reason)
            bound->rejects[kind][reason] = &registry.counter(
                "erms_guard_rejections_total",
                {{"reason", kRejectReasonNames[reason]},
                 {"series", kSeriesKindNames[kind]}});
    for (int edge = 0; edge < kTransitionEdges; ++edge)
        bound->transitions[edge] = &registry.counter(
            "erms_guard_transitions_total",
            {{"from", kTransitionNames[edge][0]},
             {"to", kTransitionNames[edge][1]}});
    bound->transitionsTotal =
        &registry.counter("erms_guard_transitions_total");
    bound->mode = &registry.gauge("erms_guard_mode");
    bound->fallbackResidency =
        &registry.gauge("erms_guard_fallback_residency");
    bound->mode->set(static_cast<double>(mode_));
    bound->fallbackResidency->set(0.0);
    metrics_ = std::move(bound);
}

void
GuardedTelemetryView::recordReject(int kind, RejectReason reason) const
{
    if (metrics_ == nullptr)
        return;
    metrics_->rejects[kind][static_cast<int>(reason)]->inc();
}

void
GuardedTelemetryView::beginCycle(SimTime now)
{
    const double staleness = inner_->stalenessMs(now);
    const bool stale = staleness > config_.maxStalenessMs;
    const bool bad = stale || cycleRejects_ > 0;
    cycleRejects_ = 0;

    ++stats_.cycles;
    if (stale)
        ++stats_.staleCycles;

    const GuardMode before = mode_;
    switch (mode_) {
      case GuardMode::Normal:
        if (bad) {
            mode_ = GuardMode::Suspect;
            badStreak_ = 0;
        }
        break;
      case GuardMode::Suspect:
        if (!bad) {
            mode_ = GuardMode::Normal;
            badStreak_ = 0;
        } else if (++badStreak_ >= config_.suspectBadCyclesToFallback) {
            mode_ = GuardMode::Fallback;
            badStreak_ = 0;
            cleanStreak_ = 0;
        }
        break;
      case GuardMode::Fallback:
        if (bad) {
            cleanStreak_ = 0;
        } else if (++cleanStreak_ >= config_.recoveryCleanCycles) {
            // Re-validate through SUSPECT: scaling stays rate-limited
            // for one more clean cycle before normal operation resumes.
            mode_ = GuardMode::Suspect;
            badStreak_ = 0;
            cleanStreak_ = 0;
        }
        break;
    }

    if (mode_ == GuardMode::Suspect)
        ++stats_.suspectCycles;
    else if (mode_ == GuardMode::Fallback)
        ++stats_.fallbackCycles;

    if (mode_ != before)
        ++stats_.transitions;

    if (metrics_ != nullptr) {
        if (mode_ != before) {
            // Edge index matches kTransitionNames: the machine only
            // takes N→S, S→N, S→F, and F→S (see the state diagram).
            int edge = -1;
            if (before == GuardMode::Normal)
                edge = 0;
            else if (before == GuardMode::Suspect)
                edge = mode_ == GuardMode::Normal ? 1 : 2;
            else
                edge = 3;
            metrics_->transitions[edge]->inc();
            metrics_->transitionsTotal->inc();
        }
        metrics_->mode->set(static_cast<double>(mode_));
        metrics_->fallbackResidency->set(
            static_cast<double>(stats_.fallbackCycles) /
            static_cast<double>(stats_.cycles));
    }
}

double
GuardedTelemetryView::guardValue(SeriesKey key, double x,
                                 double max_bound,
                                 bool outlier_gate) const
{
    // Zero is the inner view's no-data sentinel: pass through untouched
    // so a guarded clean stream stays bit-identical to the raw one.
    if (x == 0.0)
        return 0.0;

    SeriesGuard &guard = series_[key];
    const auto reject = [&](std::uint64_t &counter, RejectReason reason) {
        ++counter;
        ++cycleRejects_;
        recordReject(key.first, reason);
        if (guard.hasLastGood) {
            ++stats_.substitutedLastGood;
            return guard.lastGood;
        }
        return 0.0;
    };
    const auto remember = [&](double v) {
        if (guard.history.size() < config_.outlierHistory) {
            guard.history.push_back(v);
        } else {
            guard.history[guard.next] = v;
            guard.next = (guard.next + 1) % config_.outlierHistory;
        }
        guard.hasLastGood = true;
        guard.lastGood = v;
        return v;
    };

    if (!std::isfinite(x) || x < 0.0 || x > max_bound)
        return reject(stats_.rejectedBounds, RejectReason::Bounds);

    // Cold-start dynamics are honestly violent for most series — a
    // bootstrap p95 spike settles 100x, host utilization climbs from
    // near-idle — so the gate normally waits for outlierMinHistory
    // accepted samples. Request rates are the exception: they move
    // smoothly on a clean stream, and a corrupt rate accepted during
    // warmup poisons last-known-good right when the controller trusts
    // it most, so for rates the relative gate arms at the very first
    // accepted sample (the median of one value is that value).
    const std::size_t arm_at =
        key.first == kRate ? 1 : config_.outlierMinHistory;
    if (outlier_gate && guard.history.size() >= arm_at) {
        std::vector<double> scratch = guard.history;
        const double median = medianOf(scratch);
        const double deviation = std::abs(x - median);
        const double rel = config_.relativeGateFactor;
        const bool far_in_ratio =
            median > 0.0 && (x > rel * median || x * rel < median);
        bool far_in_mad = true;
        if (guard.history.size() >= config_.outlierMinHistory) {
            // Settled history: the MAD gate must concur, so honest
            // drift in a noisy series survives the ratio test.
            for (double &v : scratch)
                v = std::abs(v - median);
            const double mad = medianOf(scratch);
            // A constant history has MAD 0: any deviation is then
            // infinitely many MADs out, so the gate falls through to
            // the relative test.
            far_in_mad =
                mad > 1e-12 ? deviation > config_.madGateMultiplier * mad
                            : deviation > 1e-12;
        }
        // Below outlierMinHistory the MAD estimate is meaningless, but
        // a sample several-fold off the early median is still far more
        // likely corruption than signal — the warmup window is exactly
        // when a bad accepted value would poison last-known-good, so
        // the relative gate stands alone there.
        if (far_in_mad && far_in_ratio) {
            if (x > median) {
                // Fail-safe asymmetry: every guarded series (rates,
                // latencies, utilizations) over-provisions when it errs
                // high but tears down needed capacity when it errs low.
                // A high-side outlier is therefore kept as a bounded up
                // signal — serve the relative-gate ceiling instead of
                // the raw spike, and record it so the median may climb
                // at most relativeGateFactor per sample. A genuine
                // regime change is tracked within a few cycles instead
                // of being locked out forever.
                ++stats_.clampedOutliers;
                ++cycleRejects_;
                recordReject(key.first, RejectReason::Clamp);
                return remember(rel * median);
            }
            return reject(stats_.rejectedOutliers, RejectReason::Outlier);
        }
    }

    return remember(x);
}

double
GuardedTelemetryView::observedRate(ServiceId service) const
{
    return guardValue({kRate, service}, inner_->observedRate(service),
                      config_.maxRateRpm);
}

Interference
GuardedTelemetryView::clusterInterference() const
{
    const Interference raw = inner_->clusterInterference();
    Interference guarded;
    guarded.cpuUtil = guardValue({kItfCpu, 0}, raw.cpuUtil,
                                 config_.maxInterferenceUtil);
    guarded.memUtil = guardValue({kItfMem, 0}, raw.memUtil,
                                 config_.maxInterferenceUtil);
    return guarded;
}

double
GuardedTelemetryView::serviceP95Ms(ServiceId service) const
{
    return guardValue({kServiceP95, service},
                      inner_->serviceP95Ms(service), config_.maxLatencyMs);
}

double
GuardedTelemetryView::microserviceTailMs(MicroserviceId ms) const
{
    return guardValue({kMsTail, ms}, inner_->microserviceTailMs(ms),
                      config_.maxLatencyMs);
}

int
GuardedTelemetryView::containerCount(MicroserviceId ms) const
{
    const int raw = inner_->containerCount(ms);
    // -1 is the "series absent" sentinel; anything else must be a
    // plausible container count.
    if (raw == -1)
        return -1;
    // Bounds + last-known-good only: scaling legitimately moves
    // container counts in large steps, so the outlier gate would
    // misfire on honest scale events.
    const double guarded = guardValue(
        {kContainerCount, ms}, static_cast<double>(raw), 1.0e6,
        /*outlier_gate=*/false);
    return static_cast<int>(guarded);
}

double
GuardedTelemetryView::stalenessMs(SimTime now) const
{
    return inner_->stalenessMs(now);
}

} // namespace erms::telemetry
