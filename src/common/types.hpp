/**
 * @file
 * Fundamental identifier and time types shared by every Erms module,
 * and the bit-exact double comparison.
 */

#ifndef ERMS_COMMON_TYPES_HPP
#define ERMS_COMMON_TYPES_HPP

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace erms {

/** Identifier of a microservice within an application catalog. */
using MicroserviceId = std::uint32_t;

/** Identifier of an online service (an entry point with its own SLA). */
using ServiceId = std::uint32_t;

/** Identifier of a deployed container instance. */
using ContainerId = std::uint32_t;

/** Identifier of a physical host in the cluster. */
using HostId = std::uint32_t;

/** Identifier of a user request flowing through a dependency graph. */
using RequestId = std::uint64_t;

/** Sentinel for "no microservice". */
inline constexpr MicroserviceId kInvalidMicroservice =
    std::numeric_limits<MicroserviceId>::max();

/** Sentinel for "no service". */
inline constexpr ServiceId kInvalidService =
    std::numeric_limits<ServiceId>::max();

/** Sentinel for "no host". */
inline constexpr HostId kInvalidHost = std::numeric_limits<HostId>::max();

/**
 * Simulated time in microseconds. The discrete-event simulator orders
 * events on integral ticks so that event ordering never suffers from
 * floating-point drift.
 */
using SimTime = std::uint64_t;

/** One simulated minute in microseconds. */
inline constexpr SimTime kMinuteUs = 60ULL * 1000ULL * 1000ULL;

/** Milliseconds as a double, the unit used by the analytic models. */
using Millis = double;

/** Convert simulator microseconds to model milliseconds. */
constexpr Millis
toMillis(SimTime t)
{
    return static_cast<Millis>(t) / 1000.0;
}

/** Convert model milliseconds to simulator microseconds (non-negative). */
constexpr SimTime
toSimTime(Millis ms)
{
    return ms <= 0.0 ? 0 : static_cast<SimTime>(ms * 1000.0 + 0.5);
}

/**
 * Workload expressed as requests per minute, the unit used throughout the
 * paper ("requests/minute"). Models internally convert to per-millisecond
 * rates where needed.
 */
using RequestsPerMinute = double;

/** Bit-pattern double equality: NaN equals NaN with the same payload,
 *  so snapshot and campaign-row comparisons stay meaningful for values
 *  that captured non-finite numbers. */
inline bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace erms

#endif // ERMS_COMMON_TYPES_HPP
