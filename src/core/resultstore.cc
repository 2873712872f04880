#include "resultstore.hh"

#include <fstream>
#include <sstream>
#include <string_view>

#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

using util::panicf;

namespace
{

constexpr const char *kMagic = "# vmargin-report";

} // namespace

std::string
serializeReport(const CharacterizationReport &report)
{
    std::string out;
    appendSerializedReport(out, report);
    return out;
}

void
appendSerializedReport(std::string &out,
                       const CharacterizationReport &report)
{
    out += kMagic;
    out += " chip=";
    out += report.chipName;
    out += " corner=";
    out += sim::cornerName(report.corner);
    const auto key = [&out](const char *name, auto value) {
        out += ' ';
        out += name;
        out += '=';
        util::appendInteger(out, value);
    };
    key("freq", report.frequency);
    key("watchdog", report.watchdogInterventions);
    key("retries", report.telemetry.retries);
    key("backoff_events", report.telemetry.backoffEvents);
    key("backoff_us", report.telemetry.backoffUsTotal);
    key("watchdog_retries", report.telemetry.watchdogRetries);
    key("lost", report.telemetry.lostMeasurements);
    key("fallback_rounds", report.telemetry.fallbackRounds);
    out += '\n';
    appendClassifiedRunCsv(out, report.allRuns);
}

namespace
{

/** Parse the "# vmargin-report key=value ..." line into @p report. */
void
parseMetadata(std::string_view line, CharacterizationReport &report)
{
    while (!line.empty()) {
        const size_t space = line.find(' ');
        const std::string_view token = line.substr(0, space);
        line.remove_prefix(space == std::string_view::npos
                               ? line.size()
                               : space + 1);
        const size_t eq = token.find('=');
        if (eq == std::string_view::npos)
            continue;
        const std::string_view key = token.substr(0, eq);
        const std::string_view value = token.substr(eq + 1);
        const auto number = [&](auto &out) {
            if (!util::parseWhole(value, out))
                panicf("deserializeReport: line 1: key '", key,
                       "' has bad value '", value, "'");
        };
        if (key == "chip")
            report.chipName = value;
        else if (key == "corner")
            report.corner = sim::cornerFromName(std::string(value));
        else if (key == "freq")
            number(report.frequency);
        else if (key == "watchdog")
            number(report.watchdogInterventions);
        else if (key == "retries")
            number(report.telemetry.retries);
        else if (key == "backoff_events")
            number(report.telemetry.backoffEvents);
        else if (key == "backoff_us")
            number(report.telemetry.backoffUsTotal);
        else if (key == "watchdog_retries")
            number(report.telemetry.watchdogRetries);
        else if (key == "lost")
            number(report.telemetry.lostMeasurements);
        else if (key == "fallback_rounds")
            number(report.telemetry.fallbackRounds);
    }
}

} // namespace

CharacterizationReport
deserializeReport(const std::string &text,
                  const SeverityWeights &weights)
{
    const auto newline = text.find('\n');
    if (newline == std::string::npos ||
        !util::startsWith(text, kMagic))
        panicf("deserializeReport: missing metadata header");

    const std::string_view document = text;
    CharacterizationReport report;
    parseMetadata(document.substr(0, newline), report);
    report.allRuns =
        parseClassifiedRunCsv(document.substr(newline + 1), 2);
    report.totalRuns = report.allRuns.size();

    // One pass: the LedgerView derives every per-cell analysis
    // (regions, severity, Vmin) without re-walking the rows per
    // cell. Cells come out in first-seen order — the view preserves
    // the stream order, which is the report's canonical cell order.
    LedgerView view(weights);
    view.addAll(report.allRuns);
    report.cells = std::move(view).cellResults();
    return report;
}

void
saveReport(const CharacterizationReport &report,
           const std::string &path)
{
    const std::string text = serializeReport(report);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        util::fatalError("cannot write report to '" + path + "'");
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out)
        // ENOSPC/EIO surface here, not in the destructor where the
        // historical code silently dropped them.
        util::fatalError("report: write to '" + path +
                         "' failed while emitting " +
                         std::to_string(text.size()) +
                         " bytes (disk full?)");
}

CharacterizationReport
loadReport(const std::string &path, const SeverityWeights &weights)
{
    std::ifstream in(path);
    if (!in)
        util::fatalError("cannot read report from '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeReport(text.str(), weights);
}

Seed
mixSweepKnobs(Seed hash, const FrameworkConfig &config)
{
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.frequency));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.startVoltage));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.endVoltage));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.runsPerVoltage));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(config.campaigns));
    hash = util::mixSeed(hash, config.maxEpochs);
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.fanTarget * 1e3));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.retryPolicy.attemptsPerOp));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(config.retryPolicy.watchdogPolls));
    hash = util::mixSeed(hash, config.retryPolicy.backoffBaseUs);
    hash = util::mixSeed(hash, config.retryPolicy.backoffCapUs);
    return hash;
}

Seed
mixChipIdentity(Seed hash, const ChipRef &chip)
{
    return util::mixSeed(hash, chip.key());
}

Seed
mixFaultPlan(Seed hash, const sim::Platform &platform)
{
    if (const sim::FaultPlan *plan = platform.faultPlan()) {
        hash = util::mixSeed(hash, plan->config().seed);
        for (size_t op = 0; op < sim::kNumFaultOps; ++op)
            hash = util::mixSeed(
                hash,
                static_cast<uint64_t>(
                    plan->config().probability(
                        static_cast<sim::FaultOp>(op)) *
                    1e9));
    }
    return hash;
}

namespace
{

/** Mix the measurement-shaping knobs shared by the journal header
 *  and the per-cell cache key: everything except the workload/core
 *  lists. */
Seed
mixMeasurementKnobs(Seed hash, const FrameworkConfig &config,
                    const sim::Platform &platform)
{
    hash = mixSweepKnobs(hash, config);
    hash = mixChipIdentity(hash, chipRefOf(platform));
    return mixFaultPlan(hash, platform);
}

} // namespace

Seed
cellConfigHash(const FrameworkConfig &config,
               const sim::Platform &platform)
{
    return mixMeasurementKnobs(
        util::hashSeed("vmargin-cell-config"), config, platform);
}

std::string
journalHeaderFor(const FrameworkConfig &config,
                 const sim::Platform &platform)
{
    // Hash every knob that shapes the measurements; a journal
    // recorded under any other configuration must be refused, or a
    // resumed sweep would silently mix incompatible cells. Unlike
    // the cell cache key, the workload and core lists are included:
    // one journal binds to one exact sweep.
    Seed hash = util::hashSeed("vmargin-journal-config");
    for (const auto &workload : config.workloads)
        hash = util::mixSeed(hash, util::hashSeed(workload.id()));
    for (const CoreId core : config.cores)
        hash = util::mixSeed(hash, static_cast<uint64_t>(core));
    hash = mixMeasurementKnobs(hash, config, platform);

    std::ostringstream os;
    os << "vmargin-journal chip=" << platform.chip().name()
       << " corner=" << sim::cornerName(platform.chip().corner())
       << " freq=" << config.frequency << " config=" << std::hex
       << hash;
    return os.str();
}

CampaignJournal::CampaignJournal(std::string path,
                                 LedgerWriteOptions options)
    : ledger_(std::move(path), "journal", options)
{
}

void
CampaignJournal::open(const std::string &header,
                      ChipRef implicit_chip)
{
    ledger_.open(header,
                 "was recorded for a different experiment "
                 "(header mismatch); refusing to resume from it",
                 implicit_chip);
}

const CellMeasurement *
CampaignJournal::find(const ChipRef &chip,
                      const std::string &workload_id,
                      CoreId core) const
{
    return ledger_.find(0, chip, workload_id, core);
}

size_t
CampaignJournal::size() const
{
    return ledger_.size();
}

void
CampaignJournal::append(const CellMeasurement &cell,
                        std::string_view run_frames)
{
    ledger_.append(0, cell, run_frames);
}

void
CampaignJournal::flush()
{
    ledger_.flush();
}

DaemonJournal::DaemonJournal(std::string path,
                             LedgerWriteOptions options)
    : ledger_(std::move(path), "daemon-journal", options)
{
}

void
DaemonJournal::open(const std::string &header)
{
    ledger_.open(header,
                 "was recorded for a different daemon session "
                 "(header mismatch); refusing to resume from it");
}

void
DaemonJournal::append(const DaemonRoundRecord &round,
                      const SupervisorCheckpoint &state)
{
    ledger_.appendDaemonRound(round, state);
}

void
DaemonJournal::flush()
{
    ledger_.flush();
}

} // namespace vmargin
