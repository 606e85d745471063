/**
 * @file
 * Strict number parsing for every text input: JSON documents
 * (common/json.hpp), CSV rate files, and the binaries' arguments and
 * environment knobs (bench/bench_util.hpp). A value is accepted only
 * when the whole text is one number that fits the target type — no
 * leading whitespace or '+', no trailing bytes, no silent clamping — so
 * a malformed input throws instead of quietly becoming a different
 * experiment.
 */

#ifndef ERMS_COMMON_PARSE_HPP
#define ERMS_COMMON_PARSE_HPP

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

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

} // namespace erms

#endif // ERMS_COMMON_PARSE_HPP
