/**
 * @file
 * Results-plane I/O throughput: the ledger writer, replay and
 * derivation paths that every campaign pays per cell and every
 * resume pays per load.
 *
 * Three measurements per stream size (1k / 10k / 100k run records):
 *
 *  - **append**: committing synthesized cells through the historical
 *    writer (one `std::ofstream` open/write/flush/close per cell and
 *    a linear duplicate scan per append — a faithful emulation of the
 *    pre-writer code path) versus the persistent `LedgerWriter` under
 *    the default flush-per-cell policy and under a group-commit batch
 *    (`flushEveryCells = 64`);
 *
 *  - **replay**: loading the finished file through the historical
 *    reader (`ostringstream << rdbuf()` full copy, per-frame decode
 *    into a fat `LedgerRecord`, linear dedup scan per commit) versus
 *    `RunLedger::open()`'s bulk read + zero-copy frame cursor;
 *
 *  - **derive**: `LedgerView::deriveAll()` over the replayed records.
 *
 * Gates (exit 1 on failure, measured at the 100k-record size):
 * append throughput >= 5x legacy with the batched policy, replay
 * >= 3x legacy. Emits a JSON trajectory record, optionally to a file:
 *
 *   ./build/bench/ledger_io --json ledger_io.json
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ledger.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/threadpool.hh"

using namespace vmargin;

namespace
{

constexpr int kRunsPerCell = 10;
constexpr char kBenchHeader[] = "vmargin-ledger-io-bench";

/** Cell keys are unique per index so first-write-wins dedup never
 *  drops a synthesized cell. */
std::string
workloadFor(size_t cell)
{
    return "synthetic/wl" + std::to_string(cell);
}

/** Deterministic synthetic measurement: a voltage staircase with a
 *  couple of abnormal runs near the floor, shaped like a real cell
 *  (coordinates, effects, telemetry, per-site EDAC detail). */
CellMeasurement
makeCell(size_t cell)
{
    CellMeasurement measurement;
    measurement.workloadId = workloadFor(cell);
    measurement.core = static_cast<CoreId>(cell % 8);
    measurement.watchdogInterventions = cell % 3 == 0 ? 1 : 0;
    measurement.telemetry.retries = cell % 5;
    for (int i = 0; i < kRunsPerCell; ++i) {
        RunRecord run;
        run.key.workloadId = measurement.workloadId;
        run.key.core = measurement.core;
        run.key.voltage = static_cast<MilliVolt>(930 - 10 * i);
        run.key.frequency = 2400;
        run.key.campaign = static_cast<uint32_t>(i / 5);
        run.key.runIndex = static_cast<uint32_t>(i % 5);
        run.exitCode = 0;
        run.seconds = 1.0 + 0.01 * static_cast<double>(i);
        run.avgIpc = 1.5;
        run.activityFactor = 0.7;
        if (i >= 8) {
            run.effects.add(Effect::CE);
            run.correctedErrors = static_cast<uint64_t>(3 + i);
            run.correctedBySite["L2Cache"] = run.correctedErrors;
        }
        if (i == kRunsPerCell - 1 && cell % 2 == 0) {
            run.effects.add(Effect::SDC);
            run.sdcEvents = 1;
        }
        measurement.runs.push_back(std::move(run));
    }
    return measurement;
}

CellCommit
commitFor(const CellMeasurement &cell)
{
    CellCommit commit;
    commit.configHash = 0;
    commit.workloadId = cell.workloadId;
    commit.core = cell.core;
    commit.runCount = static_cast<uint32_t>(cell.runs.size());
    commit.watchdogInterventions = cell.watchdogInterventions;
    commit.telemetry = cell.telemetry;
    return commit;
}

void
putU32(std::string &out, uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

/** Magic + header frame, byte-identical to what RunLedger writes for
 *  this binding header (framing version + header string). */
std::string
fileProlog()
{
    std::string payload;
    putU32(payload, kLedgerVersion);
    putU32(payload,
           static_cast<uint32_t>(sizeof(kBenchHeader) - 1));
    payload.append(kBenchHeader, sizeof(kBenchHeader) - 1);
    std::string bytes(kLedgerMagic, 4);
    appendFrame(bytes, payload);
    return bytes;
}

double
secondsSince(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

// ---- legacy emulation (the pre-writer code paths, verbatim) ------

/** Pre-writer in-memory shape: the full measurement per entry, the
 *  structure the historical findLocked() scanned per lookup. */
struct LegacyEntry
{
    Seed configHash = 0;
    CellMeasurement cell;
};

bool
legacyFind(const std::vector<LegacyEntry> &entries, Seed config_hash,
           const std::string &workload_id, CoreId core)
{
    for (const auto &entry : entries)
        if (entry.configHash == config_hash &&
            entry.cell.workloadId == workload_id &&
            entry.cell.core == core)
            return true;
    return false;
}

/** The historical append: linear duplicate scan over the full
 *  entries, per-record re-encode through the value-returning
 *  encoders, one ofstream open + write + flush + close per cell,
 *  then a deep copy into the in-memory entry list. */
double
legacyAppend(const std::string &path,
             const std::vector<CellMeasurement> &cells)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << fileProlog();
    }
    std::vector<LegacyEntry> entries;
    const auto begin = std::chrono::steady_clock::now();
    for (const auto &cell : cells) {
        if (legacyFind(entries, 0, cell.workloadId, cell.core))
            continue;
        std::string bytes;
        for (const auto &run : cell.runs)
            appendFrame(bytes, encodeRunRecord(run));
        appendFrame(bytes, encodeCellCommit(commitFor(cell)));
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << bytes;
        out.flush();
        if (!out) {
            std::cerr << "FAIL: legacy append to " << path
                      << " failed\n";
            std::exit(1);
        }
        entries.push_back(LegacyEntry{0, cell});
    }
    return secondsSince(begin);
}

/** The historical replay: full-copy read through a stringstream,
 *  manual frame walk, fat LedgerRecord decode per frame, linear
 *  dedup scan over the full entries per commit. Returns the
 *  committed cell count. */
size_t
legacyReplay(const std::string &path, double *seconds)
{
    const auto begin = std::chrono::steady_clock::now();
    std::ifstream in(path, std::ios::binary);
    std::string bytes;
    {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    size_t pos = 4; // magic
    bool saw_header = false;
    std::vector<LegacyEntry> entries;
    CellMeasurement pending;
    while (bytes.size() - pos >= 8) {
        uint32_t length = 0;
        uint32_t checksum = 0;
        for (int shift = 0; shift < 32; shift += 8)
            length |=
                static_cast<uint32_t>(static_cast<unsigned char>(
                    bytes[pos + static_cast<size_t>(shift / 8)]))
                << shift;
        for (int shift = 0; shift < 32; shift += 8)
            checksum |=
                static_cast<uint32_t>(static_cast<unsigned char>(
                    bytes[pos + 4 + static_cast<size_t>(shift / 8)]))
                << shift;
        pos += 8;
        if (bytes.size() - pos < length)
            break;
        const std::string_view payload(bytes.data() + pos, length);
        pos += length;
        if (!saw_header) {
            saw_header = true;
            continue;
        }
        if (ledgerChecksum(payload) != checksum)
            continue;
        LedgerRecord record;
        if (!decodeLedgerRecord(payload, record))
            continue;
        if (record.kind == LedgerRecord::Kind::Run) {
            pending.runs.push_back(std::move(record.run));
            continue;
        }
        if (record.kind == LedgerRecord::Kind::Commit) {
            const CellCommit &commit = record.commit;
            if (pending.runs.size() == commit.runCount &&
                !legacyFind(entries, commit.configHash,
                            commit.workloadId, commit.core)) {
                pending.workloadId = commit.workloadId;
                pending.core = commit.core;
                pending.watchdogInterventions =
                    commit.watchdogInterventions;
                pending.telemetry = commit.telemetry;
                entries.push_back(LegacyEntry{commit.configHash,
                                              std::move(pending)});
            }
            pending = CellMeasurement{};
        }
    }
    *seconds = secondsSince(begin);
    return entries.size();
}

// ---- measurement -----------------------------------------------

struct SizeResult
{
    size_t records = 0;
    size_t cells = 0;
    uint64_t fileBytes = 0;
    double appendLegacyS = 0.0;
    double appendDefaultS = 0.0; ///< flushEveryCells = 1
    double appendBatchedS = 0.0; ///< flushEveryCells = 64
    double replayLegacyS = 0.0;
    double replayNewS = 0.0;
    double deriveMs = 0.0;
    double appendSpeedup = 0.0; ///< legacy / batched
    double replaySpeedup = 0.0; ///< legacy / new
};

double
newAppend(const std::string &path,
          const std::vector<CellMeasurement> &cells,
          const LedgerWriteOptions &options)
{
    RunLedger ledger(path, "bench", options);
    ledger.open(kBenchHeader);
    const auto begin = std::chrono::steady_clock::now();
    for (const auto &cell : cells)
        ledger.append(0, cell);
    ledger.flush();
    return secondsSince(begin);
}

/** Best of @p attempts replays through RunLedger::open (bulk read +
 *  zero-copy cursor); asserts the committed count every time. */
double
newReplay(const std::string &path, size_t expect_cells,
          int attempts)
{
    double best = 0.0;
    for (int i = 0; i < attempts; ++i) {
        RunLedger ledger(path, "bench");
        const auto begin = std::chrono::steady_clock::now();
        ledger.open(kBenchHeader);
        const double seconds = secondsSince(begin);
        if (ledger.size() != expect_cells) {
            std::cerr << "FAIL: replay of " << path << " found "
                      << ledger.size() << " cells, expected "
                      << expect_cells << "\n";
            std::exit(1);
        }
        if (i == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

double
deriveMs(const std::vector<RunLedger::Entry> &entries)
{
    LedgerView view;
    for (const auto &entry : entries)
        view.addAll(entry.cell.runs);
    const auto begin = std::chrono::steady_clock::now();
    view.deriveAll();
    return secondsSince(begin) * 1000.0;
}

SizeResult
measure(size_t records, const std::filesystem::path &dir)
{
    SizeResult result;
    result.records = records;
    result.cells = records / kRunsPerCell;

    std::vector<CellMeasurement> cells;
    cells.reserve(result.cells);
    for (size_t i = 0; i < result.cells; ++i)
        cells.push_back(makeCell(i));

    const std::string legacy_path =
        (dir / ("legacy_" + std::to_string(records) + ".vmlg"))
            .string();
    const std::string new_path =
        (dir / ("new_" + std::to_string(records) + ".vmlg"))
            .string();

    std::cerr << "  " << records << " records ("
              << result.cells << " cells): legacy append...\n";
    result.appendLegacyS = legacyAppend(legacy_path, cells);

    std::cerr << "    writer append (flush per cell / batched)...\n";
    std::filesystem::remove(new_path);
    result.appendDefaultS =
        newAppend(new_path, cells, LedgerWriteOptions{});
    std::filesystem::remove(new_path);
    LedgerWriteOptions batched;
    batched.flushEveryCells = 64;
    result.appendBatchedS = newAppend(new_path, cells, batched);
    result.fileBytes = std::filesystem::file_size(new_path);

    // Both writers must produce byte-identical files: same frames,
    // same order — batching changes flush timing, not content.
    {
        std::ifstream a(legacy_path, std::ios::binary);
        std::ifstream b(new_path, std::ios::binary);
        std::ostringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        if (sa.str() != sb.str()) {
            std::cerr << "FAIL: legacy and writer files differ at "
                      << records << " records\n";
            std::exit(1);
        }
    }

    std::cerr << "    replay (legacy / bulk)...\n";
    double legacy_best = 0.0;
    size_t legacy_cells = 0;
    for (int i = 0; i < 3; ++i) {
        double seconds = 0.0;
        legacy_cells = legacyReplay(legacy_path, &seconds);
        if (i == 0 || seconds < legacy_best)
            legacy_best = seconds;
    }
    if (legacy_cells != result.cells) {
        std::cerr << "FAIL: legacy replay found " << legacy_cells
                  << " cells, expected " << result.cells << "\n";
        std::exit(1);
    }
    result.replayLegacyS = legacy_best;
    result.replayNewS = newReplay(new_path, result.cells, 3);

    std::cerr << "    derive...\n";
    RunLedger ledger(new_path, "bench");
    ledger.open(kBenchHeader);
    result.deriveMs = deriveMs(ledger.entries());

    result.appendSpeedup =
        result.appendBatchedS > 0.0
            ? result.appendLegacyS / result.appendBatchedS
            : 0.0;
    result.replaySpeedup =
        result.replayNewS > 0.0
            ? result.replayLegacyS / result.replayNewS
            : 0.0;

    std::filesystem::remove(legacy_path);
    std::filesystem::remove(new_path);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string telemetry_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--telemetry" && i + 1 < argc) {
            telemetry_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json <path>] [--telemetry <path>]\n";
            return 2;
        }
    }

    std::unique_ptr<obs::TelemetrySink> sink;
    if (!telemetry_path.empty())
        sink = std::make_unique<obs::TelemetrySink>(telemetry_path);

    util::printBanner(std::cout,
                      "results-plane I/O: ledger append / replay / "
                      "derive");

    const auto dir = std::filesystem::temp_directory_path() /
                     "vmargin_ledger_io_bench";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Zero the registry so the embedded counters cover exactly this
    // process's ledger traffic; snapshot once per stream size.
    obs::Registry::global().reset();
    const std::vector<size_t> sizes = {1000, 10000, 100000};
    std::vector<SizeResult> results;
    for (const size_t records : sizes) {
        results.push_back(measure(records, dir));
        if (sink)
            sink->flush();
    }
    const std::string counters_json =
        obs::Registry::global().countersJson();
    std::filesystem::remove_all(dir);

    for (const auto &r : results) {
        std::cout << util::padLeft(std::to_string(r.records), 7)
                  << " records: append "
                  << util::formatDouble(r.appendLegacyS * 1000.0, 1)
                  << " ms legacy / "
                  << util::formatDouble(r.appendDefaultS * 1000.0, 1)
                  << " ms per-cell / "
                  << util::formatDouble(r.appendBatchedS * 1000.0, 1)
                  << " ms batched (x"
                  << util::formatDouble(r.appendSpeedup, 1)
                  << "), replay "
                  << util::formatDouble(r.replayLegacyS * 1000.0, 1)
                  << " ms legacy / "
                  << util::formatDouble(r.replayNewS * 1000.0, 1)
                  << " ms bulk (x"
                  << util::formatDouble(r.replaySpeedup, 1)
                  << "), derive "
                  << util::formatDouble(r.deriveMs, 1) << " ms\n";
    }

    bool ok = true;
    const SizeResult &big = results.back();
    if (big.appendSpeedup < 5.0) {
        std::cerr << "FAIL: batched append at " << big.records
                  << " records is only x"
                  << util::formatDouble(big.appendSpeedup, 2)
                  << " over the legacy writer (>= 5x required)\n";
        ok = false;
    }
    if (big.replaySpeedup < 3.0) {
        std::cerr << "FAIL: bulk replay at " << big.records
                  << " records is only x"
                  << util::formatDouble(big.replaySpeedup, 2)
                  << " over the legacy reader (>= 3x required)\n";
        ok = false;
    }

    std::ostringstream json;
    json << "{\"bench\":\"ledger_io\",\"hardware_threads\":"
         << util::ThreadPool::defaultWorkerCount() << ",\"sizes\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        json << (i ? "," : "") << "{\"records\":" << r.records
             << ",\"cells\":" << r.cells
             << ",\"file_bytes\":" << r.fileBytes
             << ",\"append_legacy_s\":"
             << util::formatDouble(r.appendLegacyS, 4)
             << ",\"append_per_cell_s\":"
             << util::formatDouble(r.appendDefaultS, 4)
             << ",\"append_batched_s\":"
             << util::formatDouble(r.appendBatchedS, 4)
             << ",\"append_speedup\":"
             << util::formatDouble(r.appendSpeedup, 2)
             << ",\"replay_legacy_s\":"
             << util::formatDouble(r.replayLegacyS, 4)
             << ",\"replay_new_s\":"
             << util::formatDouble(r.replayNewS, 4)
             << ",\"replay_speedup\":"
             << util::formatDouble(r.replaySpeedup, 2)
             << ",\"derive_ms\":"
             << util::formatDouble(r.deriveMs, 3) << "}";
    }
    json << "],\"append_speedup_100k\":"
         << util::formatDouble(big.appendSpeedup, 2)
         << ",\"replay_speedup_100k\":"
         << util::formatDouble(big.replaySpeedup, 2)
         << ",\"telemetry\":" << counters_json
         << ",\"gates_passed\":" << (ok ? "true" : "false") << "}";

    std::cout << json.str() << "\n";
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write JSON to '" << json_path
                      << "'\n";
            return 1;
        }
        out << json.str() << "\n";
    }

    return ok ? 0 : 1;
}
