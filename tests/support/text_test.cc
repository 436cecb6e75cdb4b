/** @file Unit tests for text helpers. */

#include <gtest/gtest.h>

#include "support/text.hh"

namespace asim {
namespace {

TEST(Text, CharClasses)
{
    EXPECT_TRUE(isLetter('a'));
    EXPECT_TRUE(isLetter('Z'));
    EXPECT_FALSE(isLetter('1'));
    EXPECT_FALSE(isLetter('_'));
    EXPECT_TRUE(isDigit('0'));
    EXPECT_FALSE(isDigit('a'));
    EXPECT_TRUE(isHexDigit('F'));
    EXPECT_FALSE(isHexDigit('f')); // thesis hex is upper-case only
    EXPECT_FALSE(isHexDigit('G'));
}

TEST(Text, ValidNames)
{
    EXPECT_TRUE(isValidName("count"));
    EXPECT_TRUE(isValidName("alu2"));
    EXPECT_TRUE(isValidName("A"));
    EXPECT_FALSE(isValidName(""));
    EXPECT_FALSE(isValidName("2alu"));
    EXPECT_FALSE(isValidName("a_b"));
    EXPECT_FALSE(isValidName("a.b"));
}

TEST(Text, Split)
{
    auto p = split("a,b,,c", ',');
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], "a");
    EXPECT_EQ(p[2], "");
    EXPECT_EQ(split("abc", ',').size(), 1u);
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Text, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Text, StartsWithContains)
{
    EXPECT_TRUE(startsWith("abcdef", "abc"));
    EXPECT_FALSE(startsWith("ab", "abc"));
    EXPECT_TRUE(contains("hello world", "lo w"));
    EXPECT_FALSE(contains("hello", "xyz"));
}

TEST(Text, CountOccurrences)
{
    EXPECT_EQ(countOccurrences("aaa", "a"), 3);
    EXPECT_EQ(countOccurrences("aaaa", "aa"), 2);
    EXPECT_EQ(countOccurrences("abc", "x"), 0);
    EXPECT_EQ(countOccurrences("abc", ""), 0);
}

TEST(Text, ParseIntegerTakesWholeTextInRange)
{
    EXPECT_EQ(parseInteger("42", 0, 100, 10), 42);
    EXPECT_EQ(parseInteger("-7", -10, 10, 10), -7);
    EXPECT_EQ(parseInteger("+7", 0, 10, 10), 7);
    EXPECT_EQ(parseInteger("0x1F", 0, 100, 0), 31);
    EXPECT_EQ(parseInteger("010", 0, 100, 0), 8);
    EXPECT_EQ(parseInteger("010", 0, 100, 10), 10);
    EXPECT_EQ(parseInteger("100", 0, 100, 10), 100);
    EXPECT_EQ(parseInteger("-9223372036854775808", INT64_MIN,
                           INT64_MAX, 10),
              INT64_MIN);
}

TEST(Text, ParseIntegerRefusesMalformedOrOutOfRange)
{
    for (const char *bad : {"", "abc", "3x", "5 ", " 5", "0x", "1e3",
                            "--1", "9223372036854775808"}) {
        EXPECT_FALSE(parseInteger(bad, INT64_MIN, INT64_MAX, 0))
            << bad;
    }
    EXPECT_FALSE(parseInteger("0x10", 0, 100, 10));
    EXPECT_FALSE(parseInteger("101", 0, 100, 10));
    EXPECT_FALSE(parseInteger("-1", 0, 100, 10));
    EXPECT_FALSE(parseInteger(std::string_view("12\0", 3), 0, 100, 10));
}

TEST(Text, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    // Newlines round-trip (multi-line io_text in batch reports).
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string_view("x\x01y", 3)), "x\\u0001y");
}

} // namespace
} // namespace asim
