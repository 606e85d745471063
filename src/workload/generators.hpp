/**
 * @file
 * Workload generators: static rates, diurnal (Alibaba-like) per-minute
 * rate series with noise and bursts, and step/spike patterns. Rates are
 * requests/minute, consumable by Simulation::ServiceWorkload::rateSeries
 * and by the analytic planners.
 */

#ifndef ERMS_WORKLOAD_GENERATORS_HPP
#define ERMS_WORKLOAD_GENERATORS_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace erms {

/** Constant rate series. */
std::vector<double> constantSeries(int minutes, double rate);

/**
 * Diurnal series: sinusoid between base and peak with multiplicative
 * log-normal noise — the dominant shape of Alibaba online-service
 * workloads.
 *
 * @param minutes        series length
 * @param baseRate       trough rate (requests/minute)
 * @param peakRate       crest rate
 * @param periodMinutes  full sine period
 * @param noiseCv        coefficient of variation of the noise (0 = none)
 * @param seed           RNG seed
 */
std::vector<double> diurnalSeries(int minutes, double baseRate,
                                  double peakRate, double periodMinutes,
                                  double noiseCv, std::uint64_t seed);

/**
 * Diurnal series starting `phaseMinutes` into the cycle — the tenant
 * populations of the resource-market experiments (docs/market.md) are
 * built from one diurnal shape at staggered phases, so tenant peaks
 * alternate and troughs of one tenant overlap peaks of another.
 * phaseShiftedDiurnalSeries(..., 0.0, cv, seed) is exactly
 * diurnalSeries(..., cv, seed).
 */
std::vector<double> phaseShiftedDiurnalSeries(int minutes, double baseRate,
                                              double peakRate,
                                              double periodMinutes,
                                              double phaseMinutes,
                                              double noiseCv,
                                              std::uint64_t seed);

/**
 * Diurnal series with sudden bursts layered on top (flash-crowd spikes):
 * each minute independently starts a burst with burstProbability; a burst
 * multiplies the rate by burstFactor for burstMinutes.
 */
std::vector<double> alibabaLikeSeries(int minutes, double baseRate,
                                      double peakRate, double periodMinutes,
                                      double noiseCv,
                                      double burstProbability,
                                      double burstFactor, int burstMinutes,
                                      std::uint64_t seed);

/** Step series: lowRate, jumping to highRate at switchMinute. */
std::vector<double> stepSeries(int minutes, double lowRate, double highRate,
                               int switchMinute);

/**
 * Parse a per-minute rate series from CSV text: one value per line (an
 * optional second column is ignored, as are blank lines and lines
 * starting with '#'). Cells are split on ',' and trimmed of blanks; the
 * rate must be one whole number token. Used to replay exported
 * production traces.
 * @throws ErmsError naming the line on a rate that is not a finite
 * non-negative number, or on a row with more than two columns.
 */
std::vector<double> rateSeriesFromCsv(std::istream &is);

} // namespace erms

#endif // ERMS_WORKLOAD_GENERATORS_HPP
