#include "fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace erms {

namespace {

// Derived-stream indexes of the fault seed. Keep in sync with
// Simulation's per-call streams (documented in docs/faults.md):
//   0 = crash schedule, 1 = transient call failures, 2 = retry jitter,
//   3 = slowdown schedule.
constexpr std::uint64_t kCrashStream = 0;
constexpr std::uint64_t kSlowdownStream = 3;

} // namespace

std::vector<SimTime>
poissonTimes(Rng &rng, double per_minute, SimTime horizon)
{
    std::vector<SimTime> times;
    if (per_minute <= 0.0)
        return times;
    const double mean_gap_us = static_cast<double>(kMinuteUs) / per_minute;
    double t = 0.0;
    for (;;) {
        t += std::max(1.0, rng.exponential(mean_gap_us));
        if (t >= static_cast<double>(horizon))
            break;
        times.push_back(static_cast<SimTime>(t));
    }
    return times;
}

bool
FaultConfig::anyFaults() const
{
    return crashesPerMinute > 0.0 || slowdownsPerMinute > 0.0 ||
           callFailureProbability > 0.0 || azEvents.active();
}

std::vector<AzEvent>
buildAzEventSchedule(const AzEventConfig &config, SimTime horizon)
{
    ERMS_ASSERT(config.azCount > 0);
    std::vector<AzEvent> events;
    if (!config.active())
        return events;
    // Stream 0 of the AZ seed; the AZ seed is its own namespace (shared
    // verbatim between the two fault planes), so this never collides
    // with the crash/slowdown/blackout streams of the plane seeds.
    Rng rng(deriveRunSeed(config.seed, 0));
    const SimTime duration = toSimTime(config.eventDurationMs);
    for (SimTime at : poissonTimes(rng, config.eventsPerMinute, horizon)) {
        AzEvent event;
        event.start = at;
        event.end = at + std::max<SimTime>(1, duration);
        event.az = static_cast<int>(rng.uniformInt(0, config.azCount - 1));
        events.push_back(event);
    }
    return events;
}

void
addAzHostWindows(std::vector<HostWindow> &windows,
                 const std::vector<AzEvent> &events, int az_count,
                 int host_count)
{
    for (const AzEvent &event : events) {
        for (HostId host = 0; host < static_cast<HostId>(host_count);
             ++host) {
            if (azOfHost(host, az_count) != event.az)
                continue;
            HostWindow window;
            window.start = event.start;
            window.end = event.end;
            window.host = host;
            windows.push_back(window);
        }
    }
    std::sort(windows.begin(), windows.end(),
              [](const HostWindow &a, const HostWindow &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.end != b.end)
                      return a.end < b.end;
                  return a.host < b.host;
              });
}

FaultSchedule
buildFaultSchedule(const FaultConfig &config, int host_count,
                   SimTime horizon)
{
    ERMS_ASSERT(host_count > 0);
    FaultSchedule schedule;

    Rng crash_rng(deriveRunSeed(config.seed, kCrashStream));
    for (SimTime at : poissonTimes(crash_rng, config.crashesPerMinute,
                                   horizon)) {
        CrashEvent crash;
        crash.at = at;
        crash.victimDraw = crash_rng.next();
        schedule.crashes.push_back(crash);
    }

    Rng slow_rng(deriveRunSeed(config.seed, kSlowdownStream));
    const SimTime duration = toSimTime(config.slowdownDurationMs);
    for (SimTime at : poissonTimes(slow_rng, config.slowdownsPerMinute,
                                   horizon)) {
        SlowdownWindow window;
        window.start = at;
        window.end = at + std::max<SimTime>(1, duration);
        window.host = static_cast<HostId>(
            slow_rng.uniformInt(0, host_count - 1));
        schedule.slowdowns.push_back(window);
    }

    if (config.azEvents.active()) {
        // Data-plane half of the correlated AZ events: every host of
        // the struck AZ straggles for the window. The identical event
        // list drives the telemetry plane (buildTelemetryFaultSchedule)
        // when the same AzEventConfig is set there.
        addAzHostWindows(schedule.slowdowns,
                         buildAzEventSchedule(config.azEvents, horizon),
                         config.azEvents.azCount, host_count);
    }
    return schedule;
}

} // namespace erms
