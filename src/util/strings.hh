/**
 * @file
 * Small string helpers used by the CSV layer, the CLI parser and the
 * log classifier.
 */

#ifndef VMARGIN_UTIL_STRINGS_HH
#define VMARGIN_UTIL_STRINGS_HH

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace vmargin::util
{

/** Split @p text on @p sep; keeps empty fields. */
std::vector<std::string> split(const std::string &text, char sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(const std::string &text);

/** trim() as a view into @p text, copying nothing. */
std::string_view trimView(std::string_view text);

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True if @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Lower-case copy (ASCII only). */
std::string toLower(const std::string &text);

/** True if the whole string parses as a (signed) integer. */
bool isInteger(const std::string &text);

/** True if the whole string parses as a floating point number. */
bool isNumber(const std::string &text);

/** Fixed-precision formatting, e.g. formatDouble(0.1234, 2) == "0.12".
 *  Same bytes as an ostream in std::fixed at that precision (printf
 *  "%.*f"), including "nan", "-nan", "inf" and "-inf". */
std::string formatDouble(double value, int precision);

/** Append formatDouble(@p value, @p precision) to @p out. */
void appendDouble(std::string &out, double value, int precision);

/** Append the decimal digits of integer @p value to @p out (the
 *  bytes of std::to_string). */
template <typename Int>
void
appendInteger(std::string &out, Int value)
{
    char buffer[24]; // 20 digits of UINT64_MAX, or a sign and 19
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

/**
 * Parse the whole of @p text as a base-10 number of type @p T into
 * @p out. False — @p out unspecified — when @p text is empty, has a
 * character left over, or its value does not fit @p T. Unlike
 * strtol/strtod, no leading whitespace or '+' is accepted, so a
 * value must read back exactly as appendInteger/appendDouble wrote
 * it.
 */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, out);
    return !text.empty() && result.ec == std::errc() &&
           result.ptr == end;
}

/** Right-pad @p text with spaces to at least @p width characters. */
std::string padRight(const std::string &text, size_t width);

/** Left-pad @p text with spaces to at least @p width characters. */
std::string padLeft(const std::string &text, size_t width);

} // namespace vmargin::util

#endif // VMARGIN_UTIL_STRINGS_HH
