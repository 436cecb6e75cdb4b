/**
 * @file
 * Small text helpers shared by the lexer, parsers, and code generators,
 * and the one whole-file reader.
 */

#ifndef ASIM_SUPPORT_TEXT_HH
#define ASIM_SUPPORT_TEXT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace asim {

/** Letters per the thesis grammar (a..z, A..Z). */
constexpr bool
isLetter(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/** Decimal digits. */
constexpr bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Hex digits per the thesis grammar (0..9, A..F — upper case only). */
constexpr bool
isHexDigit(char c)
{
    return isDigit(c) || (c >= 'A' && c <= 'F');
}

/** Valid name: a letter followed by letters and digits. */
bool isValidName(std::string_view s);

/** Split `s` on `sep`, keeping empty pieces. */
std::vector<std::string> split(std::string_view s, char sep);

/** Join pieces with `sep`. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view sep);

/** True if `s` starts with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True if `hay` contains `needle`. */
bool contains(std::string_view hay, std::string_view needle);

/** Count occurrences of `needle` in `hay` (non-overlapping). */
int countOccurrences(std::string_view hay, std::string_view needle);

/**
 * Parse all of `text` as an integer in [min, max]. `base` is as for
 * strtoll: 10, or 0 to accept the C prefixes (0x hex, leading-0
 * octal). An optional sign is allowed; whitespace is not. Returns
 * nothing when `text` is empty, has any stray character, or names a
 * value outside the range.
 */
std::optional<int64_t> parseInteger(std::string_view text, int64_t min,
                                    int64_t max, int base);

/** `s` escaped for the inside of a JSON string literal: quotes and
 *  backslashes, `\n` `\t` `\r` by name, other control characters as
 *  `\u00XX`. */
std::string jsonEscape(std::string_view s);

/** The whole file at `path`, byte for byte; nothing when it cannot be
 *  opened or read. */
std::optional<std::string> readFile(const std::string &path);

} // namespace asim

#endif // ASIM_SUPPORT_TEXT_HH
