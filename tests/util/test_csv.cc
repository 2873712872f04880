/**
 * @file
 * Unit tests for CSV emission and scanning.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hh"

namespace vmargin::util
{
namespace
{

using Rows = std::vector<std::vector<std::string>>;

/** Every record of @p text, the header first, as owned strings. */
Rows
scanAll(const std::string &text, char sep = ',')
{
    CsvScanner scanner(text, sep);
    std::vector<std::string_view> fields;
    Rows rows;
    while (scanner.next(fields))
        rows.emplace_back(fields.begin(), fields.end());
    return rows;
}

TEST(CsvWriter, PlainRows)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"a", "b"});
    writer.writeRow({"1", "2"});
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
    EXPECT_EQ(writer.rowsWritten(), 2u);
}

TEST(CsvWriter, EscapesSeparator)
{
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(CsvWriter, EscapesQuotes)
{
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, EscapesNewline)
{
    EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, LeavesPlainAlone)
{
    EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(CsvWriter, CustomSeparator)
{
    std::ostringstream os;
    CsvWriter writer(os, ';');
    writer.writeRow({"a;x", "b"});
    EXPECT_EQ(os.str(), "\"a;x\";b\n");
    EXPECT_EQ(scanAll(os.str(), ';')[0],
              (std::vector<std::string>{"a;x", "b"}));
}

TEST(CsvWriter, EscapeInPlaceQuotesOnlyTheTail)
{
    std::string out = "kept,";
    out += "say \"hi\"";
    CsvWriter::escapeInPlace(out, 5);
    EXPECT_EQ(out, "kept,\"say \"\"hi\"\"\"");
    out += ",plain";
    CsvWriter::escapeInPlace(out, out.size() - 5);
    EXPECT_EQ(out, "kept,\"say \"\"hi\"\"\",plain");
}

TEST(ParseCsv, RoundTrip)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"name", "value"});
    writer.writeRow({"plain", "1"});
    writer.writeRow({"with,comma", "2"});
    writer.writeRow({"with \"quote\"", "3"});
    writer.writeRow({"with\nnewline", "4"});

    const Rows rows = scanAll(os.str());
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "value"}));
    EXPECT_EQ(rows[1][0], "plain");
    EXPECT_EQ(rows[2][0], "with,comma");
    EXPECT_EQ(rows[3][0], "with \"quote\"");
    EXPECT_EQ(rows[4][0], "with\nnewline");
    EXPECT_EQ(rows[4][1], "4");
}

TEST(ParseCsv, Empty)
{
    EXPECT_TRUE(scanAll("").empty());
    EXPECT_TRUE(scanAll("\n\r\n\r").empty());
}

TEST(ParseCsv, HeaderOnly)
{
    const Rows rows = scanAll("a,b,c\n");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].size(), 3u);
}

TEST(ParseCsv, CrLfLineEndings)
{
    const Rows rows = scanAll("a,b\r\n1,2\r\n\"x\",\"y\"\r\n");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(rows[2], (std::vector<std::string>{"x", "y"}));
}

TEST(ParseCsv, RecordLineNumbers)
{
    // line() names where each record starts, blank lines and
    // newlines inside quotes included.
    CsvScanner scanner("a,b\n\n1,\"x\ny\"\n2,3\n", ',', 5);
    std::vector<std::string_view> fields;
    ASSERT_TRUE(scanner.next(fields));
    EXPECT_EQ(scanner.line(), 5u);
    ASSERT_TRUE(scanner.next(fields));
    EXPECT_EQ(scanner.line(), 7u);
    EXPECT_EQ(fields[1], "x\ny");
    ASSERT_TRUE(scanner.next(fields));
    EXPECT_EQ(scanner.line(), 9u);
    EXPECT_FALSE(scanner.next(fields));
    EXPECT_TRUE(fields.empty());
}

TEST(ParseCsvLine, EmptyFieldsKept)
{
    const Rows rows = scanAll("a,,c");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][1], "");
    EXPECT_EQ(scanAll("a,b,")[0], (std::vector<std::string>{"a", "b", ""}));
}

TEST(ParseCsvLine, QuotedSeparator)
{
    const Rows rows = scanAll("\"a,b\",c");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 2u);
    EXPECT_EQ(rows[0][0], "a,b");
    // A quote may open mid-field; CR outside quotes is dropped.
    EXPECT_EQ(scanAll("ab\"c,d\"e\r,f")[0],
              (std::vector<std::string>{"abc,de", "f"}));
}

TEST(ParseCsv, NoTrailingNewline)
{
    const Rows rows = scanAll("a,b\n1,2");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][1], "2");
}

TEST(CsvRoundTrip, SingleEmptyFieldRowSurvives)
{
    // Regression: a row of exactly one empty field used to emit a
    // bare newline, which the parser dropped as a blank line.
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"only"});
    writer.writeRow({""});
    writer.writeRow({"x"});
    EXPECT_EQ(os.str(), "only\n\"\"\nx\n");

    const Rows rows = scanAll(os.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1], (std::vector<std::string>{""}));
    EXPECT_EQ(rows[2], (std::vector<std::string>{"x"}));
}

TEST(CsvRoundTrip, EmptyEdgeFieldsSurvive)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"a", "b", "c"});
    writer.writeRow({"", "mid", ""});
    writer.writeRow({"", "", ""});

    const Rows rows = scanAll(os.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1], (std::vector<std::string>{"", "mid", ""}));
    EXPECT_EQ(rows[2], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvRoundTrip, HostileFieldsExhaustive)
{
    // Every pairing of the characters the quoting rules exist for:
    // separator, quote, newline, carriage return, and mixtures.
    const std::vector<std::string> hostile = {
        "",          "plain",       ",",       "\"",
        "\n",        "\r\n",        "a,b",     "say \"hi\"",
        "line1\nline2", "\"quoted\"", ",lead",  "trail,",
        "\"\"",      "a\r\nb,c\"d", " spaced ", "5,\"6\"\n7",
    };
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"left", "right"});
    size_t expected_rows = 0;
    for (const auto &left : hostile)
        for (const auto &right : hostile) {
            writer.writeRow({left, right});
            ++expected_rows;
        }

    const Rows rows = scanAll(os.str());
    ASSERT_EQ(rows.size(), expected_rows + 1);
    size_t row = 1;
    for (const auto &left : hostile)
        for (const auto &right : hostile) {
            EXPECT_EQ(rows[row], (std::vector<std::string>{left, right}))
                << "row " << row;
            ++row;
        }
}

TEST(CsvRoundTrip, SingleHostileColumn)
{
    // One-column documents exercise the bare-newline edge cases the
    // multi-column round trip can't reach.
    const std::vector<std::string> hostile = {
        "", "a", "\n", ",", "\"\"", "b\nc", "",
    };
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader({"only"});
    for (const auto &value : hostile)
        writer.writeRow({value});

    const Rows rows = scanAll(os.str());
    ASSERT_EQ(rows.size(), hostile.size() + 1);
    for (size_t i = 0; i < hostile.size(); ++i)
        EXPECT_EQ(rows[i + 1], (std::vector<std::string>{hostile[i]}))
            << "row " << i;
}

} // namespace
} // namespace vmargin::util
