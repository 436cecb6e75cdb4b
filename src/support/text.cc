#include "support/text.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace asim {

bool
isValidName(std::string_view s)
{
    if (s.empty() || !isLetter(s[0]))
        return false;
    for (char c : s.substr(1)) {
        if (!isLetter(c) && !isDigit(c))
            return false;
    }
    return true;
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
contains(std::string_view hay, std::string_view needle)
{
    return hay.find(needle) != std::string_view::npos;
}

int
countOccurrences(std::string_view hay, std::string_view needle)
{
    if (needle.empty())
        return 0;
    int n = 0;
    size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string_view::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

std::optional<int64_t>
parseInteger(std::string_view text, int64_t min, int64_t max, int base)
{
    // strtoll skips leading whitespace and stops at the first stray
    // character; both are refused here.
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    const std::string s(text);
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s.c_str(), &end, base);
    if (errno != 0 || end != s.c_str() + s.size() || v < min ||
        v > max)
        return std::nullopt;
    return static_cast<int64_t>(v);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return os.str();
}

} // namespace asim
