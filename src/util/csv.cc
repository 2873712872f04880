#include "csv.hh"

namespace vmargin::util
{

CsvWriter::CsvWriter(std::ostream &out, char sep) : out_(out), sep_(sep)
{
}

std::string
CsvWriter::escape(const std::string &field, char sep)
{
    std::string out = field;
    escapeInPlace(out, 0, sep);
    return out;
}

void
CsvWriter::escapeInPlace(std::string &out, size_t begin, char sep)
{
    const char specials[] = {sep, '"', '\n', '\r'};
    if (out.find_first_of(specials, begin, sizeof(specials)) ==
        std::string::npos)
        return;
    std::string quoted = "\"";
    for (size_t i = begin; i < out.size(); ++i) {
        if (out[i] == '"')
            quoted += '"';
        quoted += out[i];
    }
    quoted += '"';
    out.replace(begin, std::string::npos, quoted);
}

void
CsvWriter::writeHeader(const std::vector<std::string> &columns)
{
    writeRow(columns);
}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    if (fields.size() == 1 && fields.front().empty()) {
        // A single empty field would serialize as a bare newline,
        // which parsers (ours included, per RFC 4180's blank-line
        // rule) drop as an empty row. Quote it to keep the row.
        out_ << "\"\"\n";
        ++rowsWritten_;
        return;
    }
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out_ << sep_;
        out_ << escape(fields[i], sep_);
    }
    out_ << '\n';
    ++rowsWritten_;
}

CsvScanner::CsvScanner(std::string_view text, char sep,
                       size_t first_line)
    : text_(text), sep_(sep), line_(first_line)
{
}

bool
CsvScanner::next(std::vector<std::string_view> &fields)
{
    fields.clear();
    scratchUsed_ = 0;
    // Carriage returns and newlines before any content make no
    // record (RFC 4180 blank lines, CRLF included).
    while (pos_ < text_.size() &&
           (text_[pos_] == '\n' || text_[pos_] == '\r'))
        line_ += text_[pos_++] == '\n';
    if (pos_ >= text_.size())
        return false;
    recordLine_ = line_;
    while (!scanField(fields)) {
    }
    return true;
}

bool
CsvScanner::endField(size_t at)
{
    if (at >= text_.size()) {
        pos_ = text_.size();
        return true;
    }
    if (text_[at] == sep_) {
        pos_ = at + 1;
        return false;
    }
    // A newline, or a carriage return followed by one (or by the end).
    pos_ = at + (text_[at] == '\r' ? 1 : 0);
    if (pos_ < text_.size()) {
        ++pos_;
        ++line_;
    }
    return true;
}

bool
CsvScanner::scanField(std::vector<std::string_view> &fields)
{
    const size_t begin = pos_;
    const size_t size = text_.size();
    const auto ends_field = [&](size_t at) {
        if (at >= size || text_[at] == sep_ || text_[at] == '\n')
            return true;
        return text_[at] == '\r' &&
               (at + 1 >= size || text_[at + 1] == '\n');
    };

    size_t i = begin;
    while (i < size && text_[i] != sep_ && text_[i] != '\n' &&
           text_[i] != '"' && text_[i] != '\r')
        ++i;
    if (ends_field(i)) {
        fields.push_back(text_.substr(begin, i - begin));
        return endField(i);
    }
    if (i == begin && text_[i] == '"') {
        // A quoted field with no doubled quote inside views the text.
        const size_t close = text_.find('"', begin + 1);
        if (close != std::string_view::npos && ends_field(close + 1)) {
            const std::string_view inner =
                text_.substr(begin + 1, close - begin - 1);
            for (char c : inner)
                line_ += c == '\n';
            fields.push_back(inner);
            return endField(close + 1);
        }
    }
    return scanQuotedField(begin, fields);
}

bool
CsvScanner::scanQuotedField(size_t begin,
                            std::vector<std::string_view> &fields)
{
    if (scratchUsed_ == scratch_.size())
        scratch_.emplace_back();
    std::string &field = scratch_[scratchUsed_++];
    field.clear();

    bool in_quotes = false;
    bool record_ends = true;
    size_t i = begin;
    for (; i < text_.size(); ++i) {
        const char c = text_[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text_.size() && text_[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                line_ += c == '\n';
                field += c;
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == sep_) {
            record_ends = false;
            break;
        } else if (c == '\n') {
            ++line_;
            break;
        } else if (c != '\r') {
            field += c;
        }
    }
    pos_ = i < text_.size() ? i + 1 : text_.size();
    fields.push_back(field);
    return record_ends;
}

} // namespace vmargin::util
