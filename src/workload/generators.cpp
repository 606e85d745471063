#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numbers>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace erms {

std::vector<double>
constantSeries(int minutes, double rate)
{
    ERMS_ASSERT(minutes > 0 && rate >= 0.0);
    return std::vector<double>(static_cast<std::size_t>(minutes), rate);
}

std::vector<double>
diurnalSeries(int minutes, double base_rate, double peak_rate,
              double period_minutes, double noise_cv, std::uint64_t seed)
{
    // phase 0.0 adds exactly 0.0 to every minute index, so this is
    // byte-identical to the pre-phase-parameter implementation.
    return phaseShiftedDiurnalSeries(minutes, base_rate, peak_rate,
                                     period_minutes, 0.0, noise_cv, seed);
}

std::vector<double>
phaseShiftedDiurnalSeries(int minutes, double base_rate, double peak_rate,
                          double period_minutes, double phase_minutes,
                          double noise_cv, std::uint64_t seed)
{
    ERMS_ASSERT(minutes > 0);
    ERMS_ASSERT(base_rate >= 0.0 && peak_rate >= base_rate);
    ERMS_ASSERT(period_minutes > 0.0);

    Rng rng(seed);
    std::vector<double> series(static_cast<std::size_t>(minutes));
    const double mid = (base_rate + peak_rate) / 2.0;
    const double amplitude = (peak_rate - base_rate) / 2.0;
    for (int m = 0; m < minutes; ++m) {
        const double phase = 2.0 * std::numbers::pi *
                             (static_cast<double>(m) + phase_minutes) /
                             period_minutes;
        double rate = mid - amplitude * std::cos(phase);
        if (noise_cv > 0.0)
            rate *= rng.logNormalMeanCv(1.0, noise_cv);
        series[static_cast<std::size_t>(m)] = std::max(0.0, rate);
    }
    return series;
}

std::vector<double>
alibabaLikeSeries(int minutes, double base_rate, double peak_rate,
                  double period_minutes, double noise_cv,
                  double burst_probability, double burst_factor,
                  int burst_minutes, std::uint64_t seed)
{
    ERMS_ASSERT(burst_probability >= 0.0 && burst_probability <= 1.0);
    ERMS_ASSERT(burst_factor >= 1.0 && burst_minutes >= 1);

    auto series = diurnalSeries(minutes, base_rate, peak_rate,
                                period_minutes, noise_cv, seed);
    Rng rng(seed ^ 0x5bf0f1edULL);
    int burst_left = 0;
    for (auto &rate : series) {
        if (burst_left > 0) {
            rate *= burst_factor;
            --burst_left;
        } else if (rng.bernoulli(burst_probability)) {
            rate *= burst_factor;
            burst_left = burst_minutes - 1;
        }
    }
    return series;
}

std::vector<double>
stepSeries(int minutes, double low_rate, double high_rate, int switch_minute)
{
    ERMS_ASSERT(minutes > 0 && switch_minute >= 0);
    std::vector<double> series(static_cast<std::size_t>(minutes), low_rate);
    for (int m = switch_minute; m < minutes; ++m)
        series[static_cast<std::size_t>(m)] = high_rate;
    return series;
}

namespace {

/** `text` without leading and trailing blanks. */
std::string_view
trimBlanks(std::string_view text)
{
    const std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string_view::npos)
        return {};
    return text.substr(first, text.find_last_not_of(" \t\r") - first + 1);
}

} // namespace

std::vector<double>
rateSeriesFromCsv(std::istream &is)
{
    std::vector<double> series;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        const std::string_view row = trimBlanks(line);
        if (row.empty() || row.front() == '#')
            continue;
        const auto reject = [&](const char *why) {
            return ErmsError("rateSeriesFromCsv: line " +
                             std::to_string(line_number) + ": '" + line +
                             "' " + why);
        };
        const std::size_t comma = row.find(',');
        if (comma != std::string_view::npos &&
            row.find(',', comma + 1) != std::string_view::npos)
            throw reject("has more than two columns");
        const std::optional<double> rate =
            parseNumber<double>(trimBlanks(row.substr(0, comma)));
        if (!rate || !std::isfinite(*rate) || *rate < 0.0)
            throw reject("has no finite non-negative rate in column 1");
        series.push_back(*rate);
    }
    return series;
}

} // namespace erms
