#include "classifier.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iterator>
#include <map>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

using util::panicf;

std::vector<std::string>
formatRunLog(const RunKey &key, const sim::RunResult &run)
{
    std::vector<std::string> lines;
    lines.push_back(util::concat(
        "RUN workload=", key.workloadId, " core=", key.core,
        " voltage=", key.voltage, " freq=", key.frequency,
        " campaign=", key.campaign, " run=", key.runIndex));
    lines.push_back(util::concat("STATUS responsive=",
                                 run.systemCrashed ? 0 : 1));
    lines.push_back(util::concat("EXIT code=", run.exitCode,
                                 " completed=",
                                 run.completed ? 1 : 0));
    lines.push_back(util::concat("OUTPUT match=",
                                 run.outputMatches ? 1 : 0));
    lines.push_back(util::concat("EDAC ce=", run.correctedErrors,
                                 " ue=", run.uncorrectedErrors));
    for (const auto &record : run.errors)
        lines.push_back(util::concat(
            "EDAC_SITE kind=", sim::errorKindName(record.kind),
            " site=", sim::errorSiteName(record.site),
            " count=", record.count));
    lines.push_back(util::concat("SDC events=", run.sdcEvents));
    lines.push_back(util::concat(
        "TIME seconds=", util::formatDouble(run.simulatedSeconds, 6),
        " ipc=", util::formatDouble(run.avgIpc, 4),
        " activity=", util::formatDouble(run.activityFactor, 4)));
    return lines;
}

namespace
{

/** Parse "key=value key=value ..." after the leading tag. */
std::map<std::string, std::string>
parseFields(const std::string &line)
{
    std::map<std::string, std::string> fields;
    for (const auto &token : util::split(line, ' ')) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            continue;
        fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return fields;
}

long
asLong(const std::map<std::string, std::string> &fields,
       const std::string &name, const std::string &line)
{
    auto it = fields.find(name);
    if (it == fields.end())
        panicf("parseRunLog: missing field '", name, "' in: ", line);
    if (!util::isInteger(it->second))
        panicf("parseRunLog: field '", name, "'='", it->second,
               "' is not an integer");
    return std::strtol(it->second.c_str(), nullptr, 10);
}

double
asDouble(const std::map<std::string, std::string> &fields,
         const std::string &name, const std::string &line)
{
    auto it = fields.find(name);
    if (it == fields.end())
        panicf("parseRunLog: missing field '", name, "' in: ", line);
    if (!util::isNumber(it->second))
        panicf("parseRunLog: field '", name, "'='", it->second,
               "' is not a number");
    return std::strtod(it->second.c_str(), nullptr);
}

} // namespace

ClassifiedRun
parseRunLog(const std::vector<std::string> &lines)
{
    if (lines.empty())
        panicf("parseRunLog: empty log");

    ClassifiedRun run;
    bool responsive = true;
    bool completed = false;
    bool output_match = true;

    for (const auto &line : lines) {
        const auto fields = parseFields(line);
        if (util::startsWith(line, "RUN ")) {
            auto it = fields.find("workload");
            if (it == fields.end())
                panicf("parseRunLog: RUN line without workload: ",
                       line);
            run.key.workloadId = it->second;
            run.key.core =
                static_cast<CoreId>(asLong(fields, "core", line));
            run.key.voltage = static_cast<MilliVolt>(
                asLong(fields, "voltage", line));
            run.key.frequency = static_cast<MegaHertz>(
                asLong(fields, "freq", line));
            run.key.campaign = static_cast<uint32_t>(
                asLong(fields, "campaign", line));
            run.key.runIndex =
                static_cast<uint32_t>(asLong(fields, "run", line));
        } else if (util::startsWith(line, "STATUS ")) {
            responsive = asLong(fields, "responsive", line) != 0;
        } else if (util::startsWith(line, "EXIT ")) {
            run.exitCode =
                static_cast<int>(asLong(fields, "code", line));
            completed = asLong(fields, "completed", line) != 0;
        } else if (util::startsWith(line, "OUTPUT ")) {
            output_match = asLong(fields, "match", line) != 0;
        } else if (util::startsWith(line, "EDAC ")) {
            run.correctedErrors =
                static_cast<uint64_t>(asLong(fields, "ce", line));
            run.uncorrectedErrors =
                static_cast<uint64_t>(asLong(fields, "ue", line));
        } else if (util::startsWith(line, "SDC ")) {
            run.sdcEvents =
                static_cast<uint64_t>(asLong(fields, "events", line));
        } else if (util::startsWith(line, "TIME ")) {
            run.seconds = asDouble(fields, "seconds", line);
            run.avgIpc = asDouble(fields, "ipc", line);
            run.activityFactor = asDouble(fields, "activity", line);
        }
        else if (util::startsWith(line, "EDAC_SITE ")) {
            auto kind_it = fields.find("kind");
            auto site_it = fields.find("site");
            if (kind_it == fields.end() || site_it == fields.end())
                panicf("parseRunLog: malformed EDAC_SITE line: ",
                       line);
            const auto count = static_cast<uint64_t>(
                asLong(fields, "count", line));
            if (kind_it->second == "CE")
                run.correctedBySite[site_it->second] += count;
            else
                run.uncorrectedBySite[site_it->second] += count;
        }
    }

    if (!responsive)
        run.effects.add(Effect::SC);
    if (responsive && run.exitCode != 0)
        run.effects.add(Effect::AC);
    if (completed && !output_match)
        run.effects.add(Effect::SDC);
    if (run.correctedErrors > 0)
        run.effects.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        run.effects.add(Effect::UE);
    return run;
}

namespace
{

/** Quantize @p value exactly as a trip through the text log would:
 *  render at the log's fixed precision, then re-parse. */
double
throughLogPrecision(double value, int precision)
{
    const std::string text = util::formatDouble(value, precision);
    return std::strtod(text.c_str(), nullptr);
}

} // namespace

ClassifiedRun
classifyRunRecord(const RunKey &key, const sim::RunResult &run)
{
    ClassifiedRun out;
    out.key = key;
    out.exitCode = run.exitCode;
    out.sdcEvents = run.sdcEvents;
    out.correctedErrors = run.correctedErrors;
    out.uncorrectedErrors = run.uncorrectedErrors;
    out.seconds = throughLogPrecision(run.simulatedSeconds, 6);
    out.avgIpc = throughLogPrecision(run.avgIpc, 4);
    out.activityFactor =
        throughLogPrecision(run.activityFactor, 4);

    for (const auto &record : run.errors) {
        const std::string site = sim::errorSiteName(record.site);
        if (sim::errorKindName(record.kind) == "CE")
            out.correctedBySite[site] += record.count;
        else
            out.uncorrectedBySite[site] += record.count;
    }

    if (run.systemCrashed)
        out.effects.add(Effect::SC);
    if (!run.systemCrashed && run.exitCode != 0)
        out.effects.add(Effect::AC);
    if (run.completed && !run.outputMatches)
        out.effects.add(Effect::SDC);
    if (run.correctedErrors > 0)
        out.effects.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        out.effects.add(Effect::UE);
    return out;
}

std::vector<std::string>
formatCampaignLog(const std::vector<RunLogRecord> &records)
{
    std::vector<std::string> lines;
    lines.reserve(records.size() * 8);
    for (const auto &record : records) {
        auto run_lines = formatRunLog(record.key, record.run);
        lines.insert(lines.end(),
                     std::make_move_iterator(run_lines.begin()),
                     std::make_move_iterator(run_lines.end()));
    }
    return lines;
}

std::vector<ClassifiedRun>
parseCampaignLog(const std::vector<std::string> &lines)
{
    std::vector<ClassifiedRun> runs;
    std::vector<std::string> current;
    for (const auto &line : lines) {
        if (util::startsWith(line, "RUN ") && !current.empty()) {
            runs.push_back(parseRunLog(current));
            current.clear();
        }
        current.push_back(line);
    }
    if (!current.empty())
        runs.push_back(parseRunLog(current));
    return runs;
}

namespace
{

/** The report CSV columns, in the order the writer emits them. */
enum Column : size_t
{
    kWorkload,
    kCore,
    kVoltage,
    kFreq,
    kCampaign,
    kRun,
    kEffects,
    kSdcEvents,
    kCe,
    kUe,
    kExitCode,
    kSeconds,
    kIpc,
    kActivity,
    kCeSites,
    kUeSites,
    kNumColumns
};

constexpr std::string_view kColumnNames[kNumColumns] = {
    "workload", "core",     "voltage_mv", "freq_mhz",
    "campaign", "run",      "effects",    "sdc_events",
    "ce",       "ue",       "exit_code",  "seconds",
    "ipc",      "activity", "ce_sites",   "ue_sites"};

/** Room for one row whose workload id and site lists are short;
 *  longer rows only cost the string's geometric growth. */
constexpr size_t kRowBytesHint = 96;

void
appendSiteCounts(std::string &out,
                 const std::map<std::string, uint64_t> &sites)
{
    const size_t begin = out.size();
    for (const auto &[site, count] : sites) {
        if (out.size() != begin)
            out += ';';
        out += site;
        out += ':';
        util::appendInteger(out, count);
    }
    util::CsvWriter::escapeInPlace(out, begin);
}

void
appendRow(std::string &out, const ClassifiedRun &run)
{
    const auto integer = [&out](auto value) {
        out += ',';
        util::appendInteger(out, value);
    };
    const auto fixed = [&out](double value, int precision) {
        out += ',';
        util::appendDouble(out, value, precision);
    };
    out += run.key.workloadId;
    util::CsvWriter::escapeInPlace(out, out.size() -
                                            run.key.workloadId.size());
    integer(run.key.core);
    integer(run.key.voltage);
    integer(run.key.frequency);
    integer(run.key.campaign);
    integer(run.key.runIndex);
    out += ',';
    const size_t effects = out.size();
    run.effects.appendTo(out);
    util::CsvWriter::escapeInPlace(out, effects);
    integer(run.sdcEvents);
    integer(run.correctedErrors);
    integer(run.uncorrectedErrors);
    integer(run.exitCode);
    fixed(run.seconds, 6);
    fixed(run.avgIpc, 4);
    fixed(run.activityFactor, 4);
    out += ',';
    appendSiteCounts(out, run.correctedBySite);
    out += ',';
    appendSiteCounts(out, run.uncorrectedBySite);
    out += '\n';
}

/** One report CSV row being decoded: its fields in header order and
 *  where they sit, for messages. */
struct RowReader
{
    const std::vector<std::string_view> &fields;
    const std::array<size_t, kNumColumns> &index;
    size_t line;

    std::string_view field(Column column) const
    {
        return fields[index[column]];
    }

    template <typename T>
    void number(Column column, T &out) const
    {
        const std::string_view value = field(column);
        if (!util::parseWhole(value, out))
            panicf("report CSV: line ", line, ": column '",
                   kColumnNames[column], "' has bad value '", value,
                   "'");
    }

    std::map<std::string, uint64_t> siteCounts(Column column) const
    {
        std::map<std::string, uint64_t> sites;
        std::string_view text = field(column);
        if (text.empty())
            return sites;
        while (true) {
            const size_t semicolon = text.find(';');
            const std::string_view entry = text.substr(0, semicolon);
            const size_t colon = entry.find(':');
            if (colon == std::string_view::npos)
                panicf("report CSV: line ", line, ": column '",
                       kColumnNames[column], "' has malformed entry '",
                       entry, "'");
            uint64_t count = 0;
            if (!util::parseWhole(entry.substr(colon + 1), count))
                panicf("report CSV: line ", line, ": column '",
                       kColumnNames[column], "' has bad count in '",
                       entry, "'");
            // Rows list sites in map order, so the hint is exact.
            sites.try_emplace(sites.end(),
                              std::string(entry.substr(0, colon)))
                ->second += count;
            if (semicolon == std::string_view::npos)
                return sites;
            text.remove_prefix(semicolon + 1);
        }
    }

    ClassifiedRun run() const
    {
        ClassifiedRun run;
        run.key.workloadId = field(kWorkload);
        number(kCore, run.key.core);
        number(kVoltage, run.key.voltage);
        number(kFreq, run.key.frequency);
        number(kCampaign, run.key.campaign);
        number(kRun, run.key.runIndex);
        run.effects = EffectSet::fromString(field(kEffects));
        number(kSdcEvents, run.sdcEvents);
        number(kCe, run.correctedErrors);
        number(kUe, run.uncorrectedErrors);
        number(kExitCode, run.exitCode);
        number(kSeconds, run.seconds);
        number(kIpc, run.avgIpc);
        number(kActivity, run.activityFactor);
        run.correctedBySite = siteCounts(kCeSites);
        run.uncorrectedBySite = siteCounts(kUeSites);
        return run;
    }
};

} // namespace

void
appendClassifiedRunCsv(std::string &out,
                       const std::vector<ClassifiedRun> &runs)
{
    out.reserve(out.size() + 128 + runs.size() * kRowBytesHint);
    for (size_t c = 0; c < kNumColumns; ++c) {
        out += kColumnNames[c];
        out += c + 1 < kNumColumns ? ',' : '\n';
    }
    for (const auto &run : runs)
        appendRow(out, run);
}

std::vector<ClassifiedRun>
parseClassifiedRunCsv(std::string_view text, size_t first_line)
{
    util::CsvScanner scanner(text, ',', first_line);
    std::vector<std::string_view> fields;
    scanner.next(fields);
    const std::vector<std::string> header(fields.begin(), fields.end());
    std::array<size_t, kNumColumns> index{};
    for (size_t c = 0; c < kNumColumns; ++c) {
        const auto it =
            std::find(header.begin(), header.end(), kColumnNames[c]);
        if (it == header.end())
            panicf("report CSV: line ", first_line,
                   ": missing column '", kColumnNames[c], "'");
        index[c] = static_cast<size_t>(it - header.begin());
    }

    std::vector<ClassifiedRun> runs;
    while (scanner.next(fields)) {
        const size_t line = scanner.line();
        if (fields.size() < header.size())
            panicf("report CSV: line ", line,
                   ": row ends before column '", header[fields.size()],
                   "' (", fields.size(), " of ", header.size(),
                   " fields)");
        if (fields.size() > header.size())
            panicf("report CSV: line ", line, ": ", fields.size(),
                   " fields, but the header has ", header.size());
        runs.push_back(RowReader{fields, index, line}.run());
    }
    return runs;
}

} // namespace vmargin
