/**
 * @file
 * Strict number parsing for every text input the library reads: JSON
 * documents (common/json.hpp) and environment knobs. A value is
 * accepted only when the whole text is one number that fits the target
 * type — no leading whitespace or '+', no trailing bytes, no silent
 * clamping — so a malformed input throws instead of quietly becoming a
 * different experiment.
 */

#ifndef ERMS_COMMON_PARSE_HPP
#define ERMS_COMMON_PARSE_HPP

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace erms {

/**
 * Parse all of `text` as a T (an integer type, or double), or nullopt.
 * Integers are decimal; unsigned types take no sign. Doubles accept
 * decimal and exponent forms, inf/infinity and nan in any case, and
 * reject values beyond double range.
 */
template <class T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/**
 * Read the integer environment variable `name`: nullopt when it is
 * unset or empty; otherwise its whole value must be a decimal integer
 * in [lo, hi], and anything else throws an ErmsError naming the
 * variable and the value.
 */
inline std::optional<int>
envInt(const char *name, int lo, int hi)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return std::nullopt;
    const std::optional<int> value = parseNumber<int>(raw);
    if (!value || *value < lo || *value > hi) {
        throw ErmsError(std::string(name) + "='" + raw +
                        "': expected a decimal integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "]");
    }
    return value;
}

} // namespace erms

#endif // ERMS_COMMON_PARSE_HPP
