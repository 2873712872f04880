/**
 * @file
 * Unit tests for string helpers.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/rng.hh"
#include "util/strings.hh"

namespace vmargin::util
{
namespace
{

TEST(Split, Basic)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields)
{
    const auto parts = split(",a,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[2], "");
}

TEST(Split, NoSeparator)
{
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Trim, Whitespace)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("a"), "a");
}

TEST(Join, Basic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StartsEndsWith, Basic)
{
    EXPECT_TRUE(startsWith("voltage=980", "voltage="));
    EXPECT_FALSE(startsWith("volt", "voltage"));
    EXPECT_TRUE(endsWith("report.csv", ".csv"));
    EXPECT_FALSE(endsWith("csv", "report.csv"));
}

TEST(ToLower, Basic)
{
    EXPECT_EQ(toLower("TTT Chip"), "ttt chip");
}

TEST(IsInteger, Accepts)
{
    EXPECT_TRUE(isInteger("42"));
    EXPECT_TRUE(isInteger("-7"));
    EXPECT_TRUE(isInteger("0"));
}

TEST(IsInteger, Rejects)
{
    EXPECT_FALSE(isInteger(""));
    EXPECT_FALSE(isInteger("4.2"));
    EXPECT_FALSE(isInteger("12a"));
    EXPECT_FALSE(isInteger("a12"));
}

TEST(IsNumber, Accepts)
{
    EXPECT_TRUE(isNumber("3.14"));
    EXPECT_TRUE(isNumber("-1e-3"));
    EXPECT_TRUE(isNumber("42"));
}

TEST(IsNumber, Rejects)
{
    EXPECT_FALSE(isNumber(""));
    EXPECT_FALSE(isNumber("1.2.3"));
    EXPECT_FALSE(isNumber("volt"));
}

TEST(FormatDouble, FixedPrecision)
{
    EXPECT_EQ(formatDouble(0.1234, 2), "0.12");
    EXPECT_EQ(formatDouble(19.4, 1), "19.4");
    EXPECT_EQ(formatDouble(-2.5, 0), "-2");
}

/** The ostream rendering formatDouble must reproduce byte for byte
 *  (the report CSV and the run logs were written through it). */
class StreamFixed
{
  public:
    StreamFixed() { os_.setf(std::ios::fixed); }

    std::string operator()(double value, int precision)
    {
        os_.str("");
        os_.precision(precision);
        os_ << value;
        return os_.str();
    }

  private:
    std::ostringstream os_;
};

TEST(FormatDouble, MatchesStreamOnSeededDoubles)
{
    StreamFixed reference;
    Rng rng(0x5eed'f0a7);
    constexpr int kDoubles = 100000;
    for (int i = 0; i < kDoubles; ++i) {
        double value = 0.0;
        switch (i % 4) {
          case 0: { // any bit pattern: every exponent, denormals, NaNs
            const uint64_t bits = rng.next();
            std::memcpy(&value, &bits, sizeof(value));
            break;
          }
          case 1: // dyadic fractions: exact decimal ties at many digits
            value = static_cast<double>(rng.uniformInt(-100000, 100000)) /
                    static_cast<double>(1 << rng.uniformInt(0, 12));
            break;
          default: // the magnitudes report fields take
            value = rng.uniform(-1.0, 1.0) *
                    std::pow(10.0, static_cast<double>(
                                       rng.uniformInt(-7, 6)));
            break;
        }
        for (int precision = 0; precision <= 8; ++precision)
            ASSERT_EQ(formatDouble(value, precision),
                      reference(value, precision))
                << "value #" << i << " at precision " << precision;
    }
}

TEST(FormatDouble, MatchesStreamOnEdgeValues)
{
    StreamFixed reference;
    const double kNaN = std::numeric_limits<double>::quiet_NaN();
    const double kInf = std::numeric_limits<double>::infinity();
    const double edges[] = {0.0,
                            -0.0,
                            0.00005,
                            2.5,
                            3.5,
                            -2.5,
                            0.125,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            DBL_MIN / 3.0,
                            DBL_MIN,
                            1e300,
                            -1e300,
                            DBL_MAX,
                            -DBL_MAX,
                            kNaN,
                            -kNaN,
                            kInf,
                            -kInf};
    for (const double value : edges)
        for (int precision = 0; precision <= 8; ++precision)
            EXPECT_EQ(formatDouble(value, precision),
                      reference(value, precision))
                << value << " at precision " << precision;

    EXPECT_EQ(formatDouble(0.00005, 4), "0.0001");
    EXPECT_EQ(formatDouble(2.5, 0), "2");
    EXPECT_EQ(formatDouble(-0.0, 2), "-0.00");
    EXPECT_EQ(formatDouble(kNaN, 3), "nan");
    EXPECT_EQ(formatDouble(-kInf, 3), "-inf");
    // 301 integer digits, a point and the fraction.
    EXPECT_EQ(formatDouble(1e300, 8).size(), 301u + 1u + 8u);
    EXPECT_EQ(formatDouble(-DBL_MAX, 8).size(), 1u + 309u + 1u + 8u);
    // Past the stack buffer: the long form takes the heap path.
    EXPECT_EQ(formatDouble(-DBL_MAX, 300), reference(-DBL_MAX, 300));
    EXPECT_EQ(formatDouble(DBL_MIN, 400), reference(DBL_MIN, 400));
}

TEST(AppendInteger, MatchesToString)
{
    std::string out = "x";
    appendInteger(out, int32_t{-2147483647 - 1});
    appendInteger(out, uint64_t{18446744073709551615u});
    appendInteger(out, size_t{0});
    std::string expected = "x";
    expected += std::to_string(int32_t{-2147483647 - 1});
    expected += std::to_string(uint64_t{18446744073709551615u});
    expected += "0";
    EXPECT_EQ(out, expected);
}

TEST(ParseWhole, RejectsPartialAndOutOfRange)
{
    int32_t i = 0;
    EXPECT_TRUE(parseWhole("-905", i));
    EXPECT_EQ(i, -905);
    for (const char *bad : {"", "9x5", "zero", " 1", "+1", "1 ",
                            "2147483648"})
        EXPECT_FALSE(parseWhole(bad, i)) << "'" << bad << "'";
    uint64_t u = 0;
    EXPECT_FALSE(parseWhole("-1", u));
    double d = 0.0;
    EXPECT_TRUE(parseWhole("0.125000", d));
    EXPECT_EQ(d, 0.125);
    for (const char *bad : {"", "abc", "1.5s", "1e999", "."})
        EXPECT_FALSE(parseWhole(bad, d)) << "'" << bad << "'";
}

TEST(Pad, Basic)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

} // namespace
} // namespace vmargin::util
