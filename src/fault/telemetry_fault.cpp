#include "telemetry_fault.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace erms {

namespace {

using telemetry::MetricKind;
using telemetry::SeriesSchema;
using telemetry::TelemetrySnapshot;

// Decision-stream indexes of the telemetry fault seed. Each fault class
// draws from its own derived stream so changing one knob never shifts
// another class's decisions (documented in docs/resilient_control.md).
constexpr std::uint64_t kBlackoutStream = 0;
constexpr std::uint64_t kDropStream = 1;
constexpr std::uint64_t kDelayStream = 2;
constexpr std::uint64_t kSpanLossStream = 3;
constexpr std::uint64_t kOutlierStream = 4;
constexpr std::uint64_t kCounterDropStream = 5;
constexpr std::uint64_t kJitterStream = 6;
constexpr std::uint64_t kAzDropStream = 7;
constexpr std::uint64_t kAzDelayStream = 8;

/** Closed-form per-(stream, scrape) decision word. */
std::uint64_t
decisionWord(std::uint64_t seed, std::uint64_t stream,
             std::uint64_t scrape_index)
{
    return deriveRunSeed(deriveRunSeed(seed, stream), scrape_index);
}

/** Mix a per-series salt into a decision word (one more finalize). */
std::uint64_t
saltWord(std::uint64_t word, std::uint64_t salt)
{
    return deriveRunSeed(word ^ salt, 0);
}

/** Uniform double in [0, 1) from a decision word. */
double
toUniform(std::uint64_t word)
{
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/** FNV-1a of a series identity (name + labels). */
std::uint64_t
seriesHash(const SeriesSchema::Series &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string &text) {
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // separator
        h *= 0x100000001b3ULL;
    };
    mix(s.name);
    for (const auto &[k, v] : s.labels) {
        mix(k);
        mix(v);
    }
    return h;
}

} // namespace

bool
TelemetryFaultConfig::anyFaults() const
{
    return scrapeDropProbability > 0.0 || scrapeDelayProbability > 0.0 ||
           blackoutsPerMinute > 0.0 || spanLossProbability > 0.0 ||
           outlierProbability > 0.0 || counterDropProbability > 0.0 ||
           clockSkewMs != 0.0 || clockJitterMs > 0.0 || azEvents.active();
}

TelemetryFaultSchedule
buildTelemetryFaultSchedule(const TelemetryFaultConfig &config,
                            int host_count, SimTime horizon)
{
    ERMS_ASSERT(host_count > 0);
    TelemetryFaultSchedule schedule;
    Rng rng(deriveRunSeed(config.seed, kBlackoutStream));
    const SimTime duration = toSimTime(config.blackoutDurationMs);
    for (SimTime at : poissonTimes(rng, config.blackoutsPerMinute,
                                   horizon)) {
        BlackoutWindow window;
        window.start = at;
        window.end = at + std::max<SimTime>(1, duration);
        window.host = static_cast<HostId>(
            rng.uniformInt(0, host_count - 1));
        schedule.blackouts.push_back(window);
    }

    if (config.azEvents.active()) {
        // Observability-plane half of the correlated AZ events: the
        // identical event list buildFaultSchedule derives when the same
        // AzEventConfig is set on the data plane. Every host of the
        // struck AZ loses its gauge series for the window; the
        // per-scrape drop/delay inside the window is applied by
        // perturb() against this list.
        schedule.azEvents =
            buildAzEventSchedule(config.azEvents, horizon);
        addAzHostWindows(schedule.blackouts, schedule.azEvents,
                         config.azEvents.azCount, host_count);
    }
    return schedule;
}

SeriesCorruptor::SeriesCorruptor(SeriesCorruptionConfig config)
    : config_(config)
{
    ERMS_ASSERT(config_.scale >= 0.0);
}

std::vector<TelemetrySnapshot>
SeriesCorruptor::corrupt(std::vector<TelemetrySnapshot> snaps) const
{
    if (!config_.active())
        return snaps;

    // The targeted ids of the schema last seen: consecutive scrapes
    // mostly share one, so each run of them works its targets out once.
    const SeriesSchema *seen = nullptr;
    std::vector<std::size_t> targets;
    const auto targetsOf = [&](const TelemetrySnapshot &snap)
        -> const std::vector<std::size_t> & {
        if (snap.schema.get() == seen)
            return targets;
        seen = snap.schema.get();
        targets.clear();
        for (std::size_t id = 0; id < snap.size(); ++id) {
            const SeriesSchema::Series &s = (*snap.schema)[id];
            if (s.kind == MetricKind::Counter &&
                telemetry::labelId(s.labels, telemetry::kServiceLabel) ==
                    config_.service)
                targets.push_back(id);
        }
        return targets;
    };

    // Frozen/Negated anchor on the first scrape in which each series
    // appears, resolved over the whole stream so the result is a pure
    // function of (config, stream) — not of how the cache was queried.
    std::map<std::string, std::uint64_t> anchors;
    if (config_.mode != SeriesCorruptionConfig::Mode::Scaled) {
        for (TelemetrySnapshot &snap : snaps)
            for (std::size_t id : targetsOf(snap))
                anchors.emplace((*snap.schema)[id].name,
                                snap.words(id).counter());
    }

    for (TelemetrySnapshot &snap : snaps) {
        for (std::size_t id : targetsOf(snap)) {
            std::uint64_t &counter = snap.words(id).counter();
            switch (config_.mode) {
            case SeriesCorruptionConfig::Mode::Scaled:
                counter = static_cast<std::uint64_t>(
                    static_cast<double>(counter) * config_.scale);
                break;
            case SeriesCorruptionConfig::Mode::Frozen:
                counter = anchors.at((*snap.schema)[id].name);
                break;
            case SeriesCorruptionConfig::Mode::Negated: {
                // The counter runs backwards from its anchor by exactly
                // the true progress, clamped at zero — the worst-case
                // regression shape for delta-based rate math.
                const std::uint64_t anchor =
                    anchors.at((*snap.schema)[id].name);
                const std::uint64_t progress = counter - anchor;
                counter = anchor > progress ? anchor - progress : 0;
                break;
            }
            case SeriesCorruptionConfig::Mode::None:
                break;
            }
        }
    }
    return snaps;
}

const PerturbationCache::Facts &
PerturbationCache::facts(const std::shared_ptr<const SeriesSchema> &schema)
{
    auto [it, inserted] = facts_.try_emplace(schema);
    Facts &facts = it->second;
    if (inserted) {
        facts.salt.reserve(schema->size());
        facts.gaugeHost.reserve(schema->size());
        for (std::size_t id = 0; id < schema->size(); ++id) {
            const SeriesSchema::Series &s = (*schema)[id];
            facts.salt.push_back(seriesHash(s));
            const bool host_gauge = s.name == telemetry::kHostCpuUtil ||
                                    s.name == telemetry::kHostMemUtil;
            facts.gaugeHost.push_back(
                host_gauge ? telemetry::labelId(s.labels, telemetry::kHostLabel)
                                 .value_or(kInvalidHost)
                           : kInvalidHost);
        }
    }
    return facts;
}

std::shared_ptr<const SeriesSchema>
PerturbationCache::subset(const std::shared_ptr<const SeriesSchema> &schema,
                          const std::vector<std::size_t> &dropped)
{
    auto &cached = subsets_[{schema, dropped}];
    if (!cached) {
        std::vector<SeriesSchema::Series> kept;
        kept.reserve(schema->size() - dropped.size());
        auto next = dropped.begin();
        for (std::size_t id = 0; id < schema->size(); ++id) {
            if (next != dropped.end() && *next == id)
                ++next;
            else
                kept.push_back((*schema)[id]);
        }
        cached = std::make_shared<const SeriesSchema>(std::move(kept));
    }
    return cached;
}

TelemetryFaultInjector::TelemetryFaultInjector(TelemetryFaultConfig config,
                                               int host_count,
                                               SimTime horizon)
    : config_(config),
      schedule_(buildTelemetryFaultSchedule(config, host_count, horizon))
{
    ERMS_ASSERT(config_.scrapeDropProbability >= 0.0 &&
                config_.scrapeDropProbability <= 1.0);
    ERMS_ASSERT(config_.scrapeDelayProbability >= 0.0 &&
                config_.scrapeDelayProbability <= 1.0);
    ERMS_ASSERT(config_.spanLossProbability >= 0.0 &&
                config_.spanLossProbability <= 1.0);
    ERMS_ASSERT(config_.outlierProbability >= 0.0 &&
                config_.outlierProbability <= 1.0);
    ERMS_ASSERT(config_.counterDropProbability >= 0.0 &&
                config_.counterDropProbability <= 1.0);
    ERMS_ASSERT(config_.counterDropFloor >= 0.0 &&
                config_.counterDropFloor <= 0.9);
    ERMS_ASSERT(config_.azEvents.eventsPerMinute >= 0.0);
    ERMS_ASSERT(config_.azEvents.azCount > 0);
    ERMS_ASSERT(config_.azEvents.scrapeDropProbability >= 0.0 &&
                config_.azEvents.scrapeDropProbability <= 1.0);
    ERMS_ASSERT(config_.azEvents.scrapeDelayProbability >= 0.0 &&
                config_.azEvents.scrapeDelayProbability <= 1.0);
}

bool
TelemetryFaultInjector::activeAzEvent(SimTime at) const
{
    for (const AzEvent &event : schedule_.azEvents)
        if (event.covers(at))
            return true;
    return false;
}

PerturbedScrape
TelemetryFaultInjector::perturbScrape(std::size_t i,
                                      const TelemetrySnapshot &snap,
                                      PerturbationCache &cache) const
{
    PerturbedScrape out;
    if (!config_.anyFaults()) {
        out.snapshot = snap;
        return out;
    }
    const auto decides = [&](double probability, std::uint64_t stream) {
        return probability > 0.0 &&
               toUniform(decisionWord(config_.seed, stream, i)) <
                   probability;
    };

    if (decides(config_.scrapeDropProbability, kDropStream)) {
        out.dropped = true; // this scrape never landed
        return out;
    }
    // A delayed scrape surfaces only once the pipeline has moved
    // scrapeDelayMs past its stamp (measured against the newest true
    // scrape — the injector's notion of "now").
    if (decides(config_.scrapeDelayProbability, kDelayStream))
        out.visibleFrom = snap.at + toSimTime(config_.scrapeDelayMs);
    if (config_.azEvents.active() && activeAzEvent(snap.at)) {
        // Correlated AZ event: while the zone burns, the whole scrape
        // pipeline degrades — scrapes stamped inside the window drop or
        // arrive late with the event's own probabilities, on dedicated
        // decision streams.
        if (decides(config_.azEvents.scrapeDropProbability,
                    kAzDropStream)) {
            out.dropped = true;
            return out;
        }
        if (decides(config_.azEvents.scrapeDelayProbability,
                    kAzDelayStream))
            out.visibleFrom = std::max(
                out.visibleFrom,
                snap.at + toSimTime(config_.azEvents.scrapeDelayMs));
    }

    TelemetrySnapshot &p = out.snapshot;
    p.at = snap.at;

    // Clock skew + per-scrape jitter on the snapshot stamp. The
    // perturbed stream keeps its original order even if stamps
    // cross — exactly the corruption a real skewed scraper emits.
    if (config_.clockSkewMs != 0.0 || config_.clockJitterMs > 0.0) {
        double shift_ms = config_.clockSkewMs;
        if (config_.clockJitterMs > 0.0) {
            const double u =
                toUniform(decisionWord(config_.seed, kJitterStream, i));
            shift_ms += (2.0 * u - 1.0) * config_.clockJitterMs;
        }
        const double shifted =
            static_cast<double>(p.at) + shift_ms * 1000.0;
        p.at = shifted <= 0.0 ? 0 : static_cast<SimTime>(shifted);
    }

    const std::uint64_t span_word =
        decisionWord(config_.seed, kSpanLossStream, i);
    const std::uint64_t outlier_word =
        decisionWord(config_.seed, kOutlierStream, i);
    const std::uint64_t counter_word =
        decisionWord(config_.seed, kCounterDropStream, i);

    if (!snap.schema)
        return out;
    const SeriesSchema &schema = *snap.schema;
    const PerturbationCache::Facts &facts = cache.facts(snap.schema);

    // Per-host blackout: the host's gauge series vanish from the scrape
    // (windows are defined against true sim time).
    std::vector<HostId> dark;
    for (const BlackoutWindow &window : schedule_.blackouts)
        if (snap.at >= window.start && snap.at < window.end)
            dark.push_back(window.host);
    std::sort(dark.begin(), dark.end());
    std::vector<std::size_t> dropped;
    if (!dark.empty()) {
        for (std::size_t id = 0; id < schema.size(); ++id)
            if (facts.gaugeHost[id] != kInvalidHost &&
                std::binary_search(dark.begin(), dark.end(),
                                   facts.gaugeHost[id]))
                dropped.push_back(id);
    }
    p.schema = dropped.empty() ? snap.schema
                               : cache.subset(snap.schema, dropped);
    p.values.resize(p.schema->valueCount());

    auto next_dropped = dropped.begin();
    std::size_t kept = 0;
    for (std::size_t id = 0; id < schema.size(); ++id) {
        if (next_dropped != dropped.end() && *next_dropped == id) {
            ++next_dropped;
            continue;
        }
        const SeriesSchema::Series &s = schema[id];
        const auto src = snap[id].words();
        const auto v = p.words(kept++);
        std::copy_n(src.data(), src.size(), v.data());
        const std::uint64_t salt = facts.salt[id];

        if (s.kind == MetricKind::Counter &&
            config_.counterDropProbability > 0.0 &&
            toUniform(saltWord(counter_word, salt)) <
                config_.counterDropProbability) {
            // Partial scrape: a shard of the counter is lost, so the
            // cumulative value under-reports (and will appear to
            // regress relative to neighbouring scrapes).
            const double u =
                toUniform(saltWord(counter_word, salt ^ 0x5eedULL));
            const double f = config_.counterDropFloor +
                             u * (0.9 - config_.counterDropFloor);
            v.counter() = static_cast<std::uint64_t>(
                static_cast<double>(v.counter()) * f);
        }

        if (s.kind == MetricKind::Histogram) {
            if (config_.spanLossProbability > 0.0) {
                // Collector backpressure: a uniform fraction of the
                // cumulative span mass is gone at this scrape.
                const double u = toUniform(saltWord(span_word, salt));
                const double f = 1.0 - config_.spanLossProbability * u;
                std::uint64_t total = 0;
                for (std::uint64_t &b : v.buckets()) {
                    b = static_cast<std::uint64_t>(
                        static_cast<double>(b) * f);
                    total += b;
                }
                v.count() = total;
                v.setSum(v.sum() * f);
            }
            if (config_.outlierProbability > 0.0 && v.count() > 0 &&
                toUniform(saltWord(outlier_word, salt)) <
                    config_.outlierProbability) {
                // A corrupted batch of spans: phantom mass in the
                // overflow bucket drags interval quantiles to the top
                // boundary.
                const std::uint64_t phantom = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           static_cast<double>(v.count()) *
                           config_.outlierFraction));
                v.buckets().back() += phantom;
                v.count() += phantom;
                v.setSum(v.sum() + static_cast<double>(phantom) *
                                       s.boundaries.back() * 4.0);
            }
        }
    }
    return out;
}

std::vector<TelemetrySnapshot>
TelemetryFaultInjector::perturb(
    const std::vector<TelemetrySnapshot> &true_snaps) const
{
    std::vector<TelemetrySnapshot> out;
    out.reserve(true_snaps.size());
    const SimTime newest_true =
        true_snaps.empty() ? 0 : true_snaps.back().at;
    PerturbationCache cache;
    for (std::size_t i = 0; i < true_snaps.size(); ++i) {
        PerturbedScrape scrape = perturbScrape(i, true_snaps[i], cache);
        if (!scrape.dropped && newest_true >= scrape.visibleFrom)
            out.push_back(std::move(scrape.snapshot));
    }
    return out;
}

FaultyTelemetryView::FaultyTelemetryView(
    const telemetry::SimMonitor &monitor, TelemetryFaultConfig config,
    int host_count, SimTime horizon, SeriesCorruptionConfig corruption)
    : monitor_(&monitor), injector_(config, host_count, horizon),
      corruptor_(corruption)
{
}

const std::vector<TelemetrySnapshot> &
FaultyTelemetryView::visibleSnapshots() const
{
    const auto &true_snaps = monitor_->snapshots();
    const bool corrupting = corruptor_.config().active();
    if (perturbedCount_ == true_snaps.size())
        return corrupting ? corrupted_ : visible_;

    for (; perturbedCount_ < true_snaps.size(); ++perturbedCount_) {
        const TelemetrySnapshot &snap = true_snaps[perturbedCount_];
        ERMS_ASSERT_MSG(perturbedCount_ == 0 ||
                            snap.at >= true_snaps[perturbedCount_ - 1].at,
                        "monitor scrape stamps must not decrease");
        PerturbedScrape scrape =
            injector_.perturbScrape(perturbedCount_, snap, cache_);
        if (!scrape.dropped)
            held_.push_back({perturbedCount_, scrape.visibleFrom,
                             std::move(scrape.snapshot)});
    }
    // Surface every held scrape the newest true scrape has reached, at
    // its scrape-index position. Stamps only grow, so a scrape once
    // visible stays visible.
    const SimTime newest = true_snaps.back().at;
    const auto surfaced = [newest](const HeldScrape &held) {
        return newest >= held.visibleFrom;
    };
    for (HeldScrape &held : held_) {
        if (!surfaced(held))
            continue;
        const auto pos = std::upper_bound(visibleIndex_.begin(),
                                          visibleIndex_.end(), held.index);
        visible_.insert(visible_.begin() + (pos - visibleIndex_.begin()),
                        std::move(held.snapshot));
        visibleIndex_.insert(pos, held.index);
    }
    std::erase_if(held_, surfaced);

    if (!corrupting)
        return visible_;
    // A surfacing delayed scrape can move a Frozen/Negated anchor, so
    // the corruptor reruns over the whole visible stream.
    corrupted_ = corruptor_.corrupt(visible_);
    return corrupted_;
}

} // namespace erms
