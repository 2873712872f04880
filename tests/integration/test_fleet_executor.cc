/**
 * @file
 * Fleet determinism suite: the three-chip fleet report must be
 * byte-identical for any worker count AND any chip enumeration
 * order, a single-chip fleet must reproduce the lone
 * CharacterizationFramework::characterize() report byte for byte,
 * and a budget-chopped fleet sweep resumed through the shared
 * journal — under a hostile management-plane fault plan — must
 * reassemble the single-shot report exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/ledger.hh"
#include "core/resultstore.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.managementHang = 0.002;
    plan.staleRead = 0.05;
    plan.seed = 99;
    return plan;
}

FrameworkConfig
sweepConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

sim::Platform
templatePlatform()
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    platform.installFaultPlan(hostilePlan());
    return platform;
}

FleetReport
fleetSweep(const std::vector<std::string> &chip_specs, int workers,
           const std::string &journal_path = "", int cell_budget = 0)
{
    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework = sweepConfig();
    config.framework.workers = workers;
    config.framework.journalPath = journal_path;
    config.framework.cellBudget = cell_budget;
    FleetExecutor executor(&platform);
    return executor.run(config);
}

TEST(FleetExecutor, ThreeChipReportIdenticalAcrossWorkerCounts)
{
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};
    const FleetReport one = fleetSweep(chips, 1);
    ASSERT_EQ(one.chips.size(), 3u);
    ASSERT_EQ(one.chips[0].report.cells.size(), 8u);

    const std::string bytes = one.serialize();
    EXPECT_EQ(fleetSweep(chips, 2).serialize(), bytes)
        << "2 workers must serialize byte-identically to 1";
    EXPECT_EQ(fleetSweep(chips, 8).serialize(), bytes)
        << "8 workers must serialize byte-identically to 1";
}

TEST(FleetExecutor, ReportIndependentOfChipEnumerationOrder)
{
    const std::string bytes =
        fleetSweep({"TTT", "TFF:2", "TSS:3"}, 4).serialize();
    EXPECT_EQ(fleetSweep({"TSS:3", "TTT", "TFF:2"}, 4).serialize(),
              bytes);
    EXPECT_EQ(fleetSweep({"TFF:2", "TSS:3", "TTT"}, 8).serialize(),
              bytes);
}

TEST(FleetExecutor, SingleChipFleetMatchesCampaignExecutor)
{
    // A fleet of one must collapse to exactly the single-chip
    // characterize(): same chip identity, same report bytes.
    const FleetReport fleet = fleetSweep({"TFF:2"}, 4);
    ASSERT_EQ(fleet.chips.size(), 1u);

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TFF,
                           2);
    platform.installFaultPlan(hostilePlan());
    FrameworkConfig config = sweepConfig();
    config.workers = 4;
    CharacterizationFramework framework(&platform);
    const CharacterizationReport solo = framework.characterize(config);

    EXPECT_EQ(serializeReport(fleet.chips[0].report),
              serializeReport(solo));
    EXPECT_EQ(fleet.chips[0].report.summaryCsv(), solo.summaryCsv());
}

TEST(FleetExecutor, SharedJournalResumesWholeFleet)
{
    const std::string path = "/tmp/vmargin_fleet_journal_resume";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2"};

    const FleetReport fresh = fleetSweep(chips, 8, path);
    const FleetReport resumed = fleetSweep(chips, 1, path);
    // Every (chip, workload, core) cell must come from the journal.
    for (const auto &entry : resumed.chips)
        EXPECT_EQ(entry.report.telemetry.journalReplays, 8u);
    EXPECT_EQ(resumed.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, ShuffledChipOrderResumesTheSameJournal)
{
    const std::string path = "/tmp/vmargin_fleet_journal_shuffle";
    std::remove(path.c_str());

    const FleetReport fresh =
        fleetSweep({"TTT", "TFF:2", "TSS:3"}, 4, path);
    // A reordered --chip list binds to the same header and replays
    // every cell.
    const FleetReport resumed =
        fleetSweep({"TSS:3", "TFF:2", "TTT"}, 2, path);
    for (const auto &entry : resumed.chips)
        EXPECT_EQ(entry.report.telemetry.journalReplays, 8u);
    EXPECT_EQ(resumed.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, BudgetedSessionsMatchSingleShot)
{
    // Kill+resume: a fleet-wide budget of 5 fresh cells per session
    // chops 24 cells into 5 sessions; the reassembled report must
    // match the uninterrupted sweep byte for byte under the hostile
    // fault plan.
    const std::string path = "/tmp/vmargin_fleet_budget_journal";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};

    const FleetReport reference = fleetSweep(chips, 4);

    FleetReport report;
    int sessions = 0;
    do {
        report = fleetSweep(chips, 4, path, 5);
        ++sessions;
        ASSERT_LE(sessions, 5) << "24 cells / 5 per session";
    } while (!report.complete);

    EXPECT_EQ(sessions, 5);
    EXPECT_EQ(report.serialize(), reference.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, SharedCacheServesEveryChipApart)
{
    // One cache file serves the whole fleet: a second sweep re-runs
    // nothing, and each chip's cells come back from its own keys.
    const std::string path = "/tmp/vmargin_fleet_cache";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2"};

    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec(chips);
    config.framework = sweepConfig();
    config.framework.workers = 4;
    config.framework.cachePath = path;

    FleetExecutor executor(&platform);
    const FleetReport fresh = executor.run(config);
    const FleetReport cached = executor.run(config);
    for (const auto &entry : cached.chips)
        EXPECT_EQ(entry.report.telemetry.cacheHits, 8u);
    EXPECT_EQ(cached.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

/** FNV-1a 64 of @p bytes, chained from @p hash. */
uint64_t
fnv(uint64_t hash, std::string_view bytes)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * FNV-1a 64 of a cell ledger file with its commit units (a cell's
 * run frames plus its commit frame) in sorted order. Workers append
 * cells in completion order, which even one pool worker does not
 * fix, so the hash covers every byte the writer produced (magic,
 * header frame, every cell's frames) except that order.
 */
uint64_t
canonicalLedgerHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::string file{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const std::string_view bytes = file;
    const size_t magic = sizeof(kLedgerMagic) - 1;
    FrameCursor cursor(bytes, magic);
    std::string_view payload;
    uint32_t checksum = 0;
    EXPECT_EQ(cursor.next(payload, checksum), FrameCursor::Status::Frame)
        << "header frame";
    const size_t header_end = cursor.offset();

    std::vector<std::string_view> units;
    size_t unit_start = header_end;
    FrameCursor::Status status;
    while ((status = cursor.next(payload, checksum)) ==
           FrameCursor::Status::Frame) {
        if (!payload.empty() &&
            payload[0] == static_cast<char>(LedgerRecord::Kind::Commit)) {
            units.push_back(
                bytes.substr(unit_start, cursor.offset() - unit_start));
            unit_start = cursor.offset();
        }
    }
    EXPECT_EQ(status, FrameCursor::Status::End);
    EXPECT_EQ(unit_start, bytes.size()) << "uncommitted tail";

    std::sort(units.begin(), units.end());
    uint64_t hash = fnv(0xcbf29ce484222325ULL, bytes.substr(0, header_end));
    for (const std::string_view unit : units)
        hash = fnv(hash, unit);
    return hash;
}

TEST(FleetExecutor, JournalAndCacheBytesArePinned)
{
    // The journal and cache bytes are a pure function of the sweep
    // up to cell order, so any change to record encoding, framing or
    // commit contents shows here even when every replayed report
    // still matches. One and eight workers must write the same
    // cells, and the eight-worker files must replay the report:
    // journal first, then the cache on its own.
    const std::vector<std::string> chips = {"TTT", "TFF:2"};
    const uint64_t journal_hash = 0x68ec960c1bf922f4ULL;
    const uint64_t cache_hash = 0x32a7b6585d390800ULL;
    sim::Platform platform = templatePlatform();
    FleetExecutor executor(&platform);
    std::string bytes;
    for (const int workers : {1, 8}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        const std::string suffix = "_w" + std::to_string(workers);
        const std::string journal =
            "/tmp/vmargin_fleet_pin_journal" + suffix;
        const std::string cache = "/tmp/vmargin_fleet_pin_cache" + suffix;
        std::remove(journal.c_str());
        std::remove(cache.c_str());

        FleetConfig config;
        config.chips = parseFleetSpec(chips);
        config.framework = sweepConfig();
        config.framework.workers = workers;
        config.framework.journalPath = journal;
        config.framework.cachePath = cache;
        const std::string fresh = executor.run(config).serialize();
        if (bytes.empty())
            bytes = fresh;
        EXPECT_EQ(fresh, bytes);
        EXPECT_EQ(canonicalLedgerHash(journal), journal_hash)
            << "journal bytes changed";
        EXPECT_EQ(canonicalLedgerHash(cache), cache_hash)
            << "cell cache bytes changed";

        const FleetReport from_journal = executor.run(config);
        for (const auto &entry : from_journal.chips)
            EXPECT_EQ(entry.report.telemetry.journalReplays, 8u);
        EXPECT_EQ(from_journal.serialize(), bytes);
        config.framework.journalPath.clear();
        const FleetReport from_cache = executor.run(config);
        for (const auto &entry : from_cache.chips)
            EXPECT_EQ(entry.report.telemetry.cacheHits, 8u);
        EXPECT_EQ(from_cache.serialize(), bytes);

        std::remove(journal.c_str());
        std::remove(cache.c_str());
    }
}

TEST(FleetExecutorDeath, RefusesJournalFromDifferentFleet)
{
    const std::string path = "/tmp/vmargin_fleet_journal_mismatch";
    std::remove(path.c_str());
    (void)fleetSweep({"TTT", "TFF:2"}, 2, path);
    EXPECT_EXIT((void)fleetSweep({"TTT", "TSS:3"}, 2, path),
                ::testing::ExitedWithCode(1),
                "different experiment");
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
