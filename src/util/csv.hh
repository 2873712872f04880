/**
 * @file
 * CSV emission and scanning.
 *
 * The characterization framework's parsing phase reports every
 * classified run into CSV files (paper section 2.2); the prediction
 * pipeline reads them back. Quoting follows RFC 4180: fields
 * containing separator, quote or newline are quoted and embedded
 * quotes are doubled.
 */

#ifndef VMARGIN_UTIL_CSV_HH
#define VMARGIN_UTIL_CSV_HH

#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace vmargin::util
{

/**
 * Streaming CSV writer. Owns nothing; writes to a caller-supplied
 * stream so it can target files, string streams or stdout alike.
 */
class CsvWriter
{
  public:
    /** @param out destination stream @param sep field separator */
    explicit CsvWriter(std::ostream &out, char sep = ',');

    /** Write the header row (only sensible as the first row). */
    void writeHeader(const std::vector<std::string> &columns);

    /** Write one data row. */
    void writeRow(const std::vector<std::string> &fields);

    /** Number of rows written so far (header included). */
    size_t rowsWritten() const { return rowsWritten_; }

    /** Quote a single field according to RFC 4180. */
    static std::string escape(const std::string &field, char sep = ',');

    /**
     * Quote, in place, the field that occupies @p out from @p begin
     * to its end, exactly as escape() would. Lets a writer append a
     * field's bytes straight into its output buffer and quote them
     * only in the rare case they need it.
     */
    static void escapeInPlace(std::string &out, size_t begin,
                              char sep = ',');

  private:
    std::ostream &out_;
    char sep_;
    size_t rowsWritten_ = 0;
};

/**
 * Record-at-a-time CSV scanner over caller-owned text. Reads what
 * CsvWriter writes: quoted fields, doubled quotes and embedded
 * newlines; a carriage return outside quotes is dropped and blank
 * lines are skipped.
 *
 * Fields come back as views. A field that needs no unescaping views
 * the text itself, so the text must outlive them; one that does
 * (doubled quotes, a quote inside the field, a stray carriage
 * return) views scanner-owned scratch. Either way a view is valid
 * until the next call to next().
 */
class CsvScanner
{
  public:
    /** @param first_line line number of the text's first line, so
     *  line() can name lines of an enclosing document. */
    explicit CsvScanner(std::string_view text, char sep = ',',
                        size_t first_line = 1);

    /** Read the next record's fields into @p fields (cleared
     *  first). False, with @p fields empty, at the end of the text. */
    bool next(std::vector<std::string_view> &fields);

    /** Line on which the record last returned by next() starts. */
    size_t line() const { return recordLine_; }

  private:
    /** Scan one field starting at pos_; true when it ends the
     *  record. */
    bool scanField(std::vector<std::string_view> &fields);

    /** Slow path: scan the field from @p begin with unescaping. */
    bool scanQuotedField(size_t begin,
                         std::vector<std::string_view> &fields);

    /** True when a field ending at @p at also ends the record
     *  (newline, "\r\n" or the end of the text); advances pos_ past
     *  the terminator. */
    bool endField(size_t at);

    std::string_view text_;
    char sep_;
    size_t pos_ = 0;
    size_t line_;
    size_t recordLine_ = 0;

    /** Unescaped fields of the current record; a deque so that
     *  views into earlier fields survive appending later ones. */
    std::deque<std::string> scratch_;
    size_t scratchUsed_ = 0;
};

} // namespace vmargin::util

#endif // VMARGIN_UTIL_CSV_HH
