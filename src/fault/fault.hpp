/**
 * @file
 * Fault injection and resilience policies for the cluster simulator —
 * an extension beyond the paper (§6 only evaluates dynamic workloads on
 * a healthy cluster). The fault model covers the three failure classes
 * that dominate microservice deployments:
 *
 *  - container crashes with delayed restarts (pod kills / OOM),
 *  - host slowdown windows ("stragglers": a host whose per-µs service
 *    time is inflated for a while, fed into the existing interference
 *    model so profiling and controllers observe it),
 *  - transient per-call failures (connection resets, 5xx).
 *
 * Determinism contract: buildFaultSchedule() is a pure function of
 * (FaultConfig, host count, horizon). The schedule is generated from
 * dedicated SplitMix64-derived RNG streams, fully decoupled from the
 * simulator's request-path RNG, so the same fault seed produces the
 * same crash times / slowdown windows no matter what workload runs on
 * top, which resilience knobs are active, or how many runner workers
 * execute the sweep (see docs/faults.md).
 */

#ifndef ERMS_FAULT_FAULT_HPP
#define ERMS_FAULT_FAULT_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace erms {

class Rng;

/** Poisson arrival times on [0, horizon) at `per_minute` events/min,
 *  drawn from `rng`; empty when the rate is not positive. Every fault
 *  schedule of both planes draws its times here. */
std::vector<SimTime> poissonTimes(Rng &rng, double per_minute,
                                  SimTime horizon);

/** One window [start, end) on one host: a straggler on the data plane
 *  (SlowdownWindow), a gauge blackout on the telemetry plane
 *  (BlackoutWindow in telemetry_fault.hpp). */
struct HostWindow
{
    SimTime start = 0;
    SimTime end = 0;
    HostId host = kInvalidHost;
};

/**
 * Correlated AZ/host-group events — the failure class where one
 * physical incident (a zone's power feed, a ToR switch) degrades the
 * data plane *and* the observability plane together. The host fleet is
 * partitioned round-robin into `azCount` groups (host h belongs to AZ
 * h % azCount); each event hits one uniformly chosen AZ for a window.
 *
 * The same AzEventConfig is embedded in both FaultConfig and
 * TelemetryFaultConfig. Each side derives the identical event list from
 * (seed, eventsPerMinute, eventDurationMs, azCount) via the pure
 * buildAzEventSchedule(), so setting the two sides' `azEvents` to the
 * same value yields one closed-form schedule driving both planes:
 * the data plane turns every AZ host into a straggler for the window
 * (buildFaultSchedule appends the SlowdownWindows), while the telemetry
 * plane blacks out the AZ hosts' gauge series and drops/delays scrapes
 * inside the window (buildTelemetryFaultSchedule + perturb). This is
 * the correlation the chaos campaigns replay (docs/chaos_campaigns.md).
 */
struct AzEventConfig
{
    /** Seed of the event schedule's own RNG stream. Shared verbatim by
     *  both planes — the correlation *is* this seed. */
    std::uint64_t seed = 0xa25eULL;
    /** Poisson rate of AZ events (events/minute). 0 disables. */
    double eventsPerMinute = 0.0;
    /** Length of one AZ event window (ms). */
    double eventDurationMs = 90000.0;
    /** Number of AZ groups the host fleet is split into. */
    int azCount = 4;

    // Telemetry-plane effect knobs (consumed by TelemetryFaultInjector;
    // the data-plane side reuses FaultConfig's slowdown knobs).
    /** Probability that a scrape inside an event window never lands. */
    double scrapeDropProbability = 0.8;
    /** Probability that a surviving scrape inside a window is late. */
    double scrapeDelayProbability = 0.5;
    /** How late such a delayed scrape becomes visible (ms). */
    double scrapeDelayMs = 45000.0;

    /** True when AZ events are being injected. */
    bool active() const { return eventsPerMinute > 0.0; }
};

/** One scheduled AZ event window. */
struct AzEvent
{
    SimTime start = 0;
    SimTime end = 0;
    int az = 0;

    bool covers(SimTime at) const { return at >= start && at < end; }
};

/** AZ of a host under round-robin grouping. */
inline int
azOfHost(HostId host, int az_count)
{
    return static_cast<int>(host % static_cast<HostId>(az_count));
}

/**
 * Generate the AZ event schedule: Poisson window starts over
 * [0, horizon) on the config's own seed, one uniformly chosen AZ per
 * event. Pure function of (config, horizon) — both fault planes call
 * this with the identical config and obtain the identical list.
 */
std::vector<AzEvent> buildAzEventSchedule(const AzEventConfig &config,
                                          SimTime horizon);

/** Append to `windows` one window per host of the struck AZ for every
 *  event, over `host_count` hosts in `az_count` groups, then sort all
 *  of `windows` by (start, end, host). Both planes expand their AZ
 *  events here. */
void addAzHostWindows(std::vector<HostWindow> &windows,
                      const std::vector<AzEvent> &events, int az_count,
                      int host_count);

/**
 * Knobs of the fault injector. All rates default to zero: a
 * default-constructed FaultConfig injects nothing and leaves the
 * simulator byte-identical to a fault-free run.
 */
struct FaultConfig
{
    /** Seed of the fault subsystem's own RNG streams (independent of
     *  SimConfig::seed; see file doc). */
    std::uint64_t seed = 0xfa17ULL;

    // --- container crashes ---------------------------------------------
    /** Cluster-wide Poisson rate of container crashes (crashes/minute).
     *  Each crash kills one uniformly chosen live container: its queued
     *  calls fail over (resilience policy permitting), in-flight work is
     *  lost. */
    double crashesPerMinute = 0.0;
    /** Delay before a crashed container is restarted by the "kubelet"
     *  (ms). Negative disables auto-restart: only the scaling path
     *  (controllers re-applying plans) restores capacity. */
    double restartDelayMs = 3000.0;

    // --- host slowdown windows (stragglers) ----------------------------
    /** Poisson rate of slowdown-window starts (windows/minute),
     *  each hitting one uniformly chosen host. */
    double slowdownsPerMinute = 0.0;
    /** Length of one slowdown window (ms). */
    double slowdownDurationMs = 15000.0;
    /** Service-time multiplier on the straggling host (> 1). */
    double slowdownFactor = 2.0;
    /** Extra CPU utilization reported by the straggling host while the
     *  window is active, feeding the interference model (profiling
     *  records, cluster interference, model-based service inflation). */
    double slowdownCpuInflate = 0.25;

    // --- transient call failures ---------------------------------------
    /** Probability that any single microservice call attempt fails
     *  transiently (the response is lost after processing). */
    double callFailureProbability = 0.0;

    // --- correlated AZ events ------------------------------------------
    /** Data-plane half of the correlated AZ events (see AzEventConfig):
     *  every host of the struck AZ becomes a straggler for the window,
     *  using the slowdownFactor / slowdownCpuInflate knobs above. Set
     *  the identical struct on TelemetryFaultConfig::azEvents to
     *  correlate the observability plane. */
    AzEventConfig azEvents;

    /** True when any fault class is active. */
    bool anyFaults() const;
};

/**
 * Resilience policy of the dispatch path. Defaults are "none": no
 * retries, no timeouts, no hedging — the pre-fault-layer behaviour.
 * Resilience is independent of fault injection: per-call timeouts also
 * fire on a healthy but overloaded cluster.
 */
struct ResilienceConfig
{
    /** Extra attempts after the first (0 = fail on first error). */
    int maxRetries = 0;
    /** Backoff before the first retry (ms). */
    double retryBackoffMs = 2.0;
    /** Multiplier applied per subsequent retry (exponential backoff). */
    double retryBackoffMultiplier = 2.0;
    /** Uniform jitter fraction: backoff *= 1 + jitter * U[0,1). */
    double retryJitter = 0.5;
    /** Per-call-attempt timeout (ms); 0 disables. A timed-out attempt
     *  is abandoned (queued work is dequeued; running work completes
     *  but its result is discarded) and retried if budget remains. */
    double timeoutMs = 0.0;
    /** Launch a hedged duplicate of a call if no response arrived
     *  within this delay (ms); 0 disables. The first attempt to finish
     *  wins; the loser is cancelled. */
    double hedgeDelayMs = 0.0;
};

/** One scheduled container crash. */
struct CrashEvent
{
    SimTime at = 0;
    /** Raw draw used to pick the victim among the containers live at
     *  event time (victim = draw % liveCount). */
    std::uint64_t victimDraw = 0;
};

/** One scheduled host slowdown window. */
using SlowdownWindow = HostWindow;

/** Precomputed fault schedule of one run (time-ascending). */
struct FaultSchedule
{
    std::vector<CrashEvent> crashes;
    std::vector<SlowdownWindow> slowdowns;
};

/**
 * Generate the fault schedule for one run: Poisson arrival times over
 * [0, horizon) for crashes and slowdown windows. Crash times and
 * slowdown windows come from separate derived RNG streams, so changing
 * one knob never shifts the other class's schedule. Active AZ events
 * (config.azEvents) append one SlowdownWindow per host of the struck AZ
 * per event; with AZ events on, the combined slowdown list is sorted by
 * (start, end, host), and with them off the schedule is byte-identical
 * to the pre-AZ behaviour.
 */
FaultSchedule buildFaultSchedule(const FaultConfig &config, int host_count,
                                 SimTime horizon);

} // namespace erms

#endif // ERMS_FAULT_FAULT_HPP
