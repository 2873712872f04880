/**
 * @file
 * Round-trip tests for characterization-report persistence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/resultstore.hh"
#include "util/csv.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class ResultStoreTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        platform_ = new sim::Platform(sim::XGene2Params{},
                                      sim::ChipCorner::TFF, 3);
        CharacterizationFramework framework(platform_);
        FrameworkConfig config;
        config.workloads = {wl::findWorkload("bwaves/ref"),
                            wl::findWorkload("mcf/ref")};
        config.cores = {0, 4};
        config.campaigns = 4;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));
    }

    static void
    TearDownTestSuite()
    {
        delete report_;
        delete platform_;
        report_ = nullptr;
        platform_ = nullptr;
    }

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
};

sim::Platform *ResultStoreTest::platform_ = nullptr;
CharacterizationReport *ResultStoreTest::report_ = nullptr;

TEST_F(ResultStoreTest, MetadataSurvives)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    EXPECT_EQ(loaded.chipName, report_->chipName);
    EXPECT_EQ(loaded.corner, report_->corner);
    EXPECT_EQ(loaded.frequency, report_->frequency);
    EXPECT_EQ(loaded.watchdogInterventions,
              report_->watchdogInterventions);
}

TEST_F(ResultStoreTest, RunsSurvive)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    ASSERT_EQ(loaded.allRuns.size(), report_->allRuns.size());
    for (size_t i = 0; i < loaded.allRuns.size(); ++i) {
        const auto &a = loaded.allRuns[i];
        const auto &b = report_->allRuns[i];
        EXPECT_EQ(a.key.workloadId, b.key.workloadId);
        EXPECT_EQ(a.key.voltage, b.key.voltage);
        EXPECT_EQ(a.key.campaign, b.key.campaign);
        EXPECT_EQ(a.effects, b.effects);
        EXPECT_EQ(a.sdcEvents, b.sdcEvents);
        EXPECT_EQ(a.correctedErrors, b.correctedErrors);
        EXPECT_EQ(a.exitCode, b.exitCode);
    }
}

TEST_F(ResultStoreTest, AnalysesRebuildIdentically)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    ASSERT_EQ(loaded.cells.size(), report_->cells.size());
    for (const auto &cell : report_->cells) {
        const auto &rebuilt =
            loaded.cell(cell.workloadId, cell.core);
        EXPECT_EQ(rebuilt.analysis.vmin, cell.analysis.vmin);
        EXPECT_EQ(rebuilt.analysis.highestCrashVoltage,
                  cell.analysis.highestCrashVoltage);
        EXPECT_EQ(rebuilt.analysis.unsafeWidth(),
                  cell.analysis.unsafeWidth());
        for (const auto &[v, sev] :
             cell.analysis.severityByVoltage)
            EXPECT_DOUBLE_EQ(
                rebuilt.analysis.severityByVoltage.at(v), sev);
    }
}

TEST_F(ResultStoreTest, ErrorSitesSurvive)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    size_t runs_with_sites = 0;
    for (size_t i = 0; i < loaded.allRuns.size(); ++i) {
        EXPECT_EQ(loaded.allRuns[i].correctedBySite,
                  report_->allRuns[i].correctedBySite);
        EXPECT_EQ(loaded.allRuns[i].uncorrectedBySite,
                  report_->allRuns[i].uncorrectedBySite);
        runs_with_sites +=
            !loaded.allRuns[i].correctedBySite.empty();
    }
    EXPECT_GT(runs_with_sites, 0u)
        << "the sweep must have produced EDAC location detail";
}

TEST_F(ResultStoreTest, SerializedFormIsStable)
{
    const std::string once = serializeReport(*report_);
    const std::string twice =
        serializeReport(deserializeReport(once));
    EXPECT_EQ(once, twice);
}

TEST_F(ResultStoreTest, FileRoundTrip)
{
    const std::string path = "/tmp/vmargin_test_report.csv";
    saveReport(*report_, path);
    const auto loaded = loadReport(path);
    EXPECT_EQ(loaded.allRuns.size(), report_->allRuns.size());
    EXPECT_EQ(loaded.chipName, report_->chipName);
    std::remove(path.c_str());
}

TEST_F(ResultStoreTest, CustomWeightsChangeSeverityOnly)
{
    SeverityWeights heavy;
    heavy.sdc = 100.0;
    const auto loaded =
        deserializeReport(serializeReport(*report_), heavy);
    const auto &base = report_->cell("bwaves/ref", 0).analysis;
    const auto &reweighted =
        loaded.cell("bwaves/ref", 0).analysis;
    EXPECT_EQ(reweighted.vmin, base.vmin);
    // Severity in the unsafe region must now dwarf the original.
    const MilliVolt probe = base.vmin - 10;
    if (base.severityByVoltage.count(probe) &&
        base.severityByVoltage.at(probe) > 0.0) {
        EXPECT_GT(reweighted.severityByVoltage.at(probe),
                  base.severityByVoltage.at(probe));
    }
}

TEST(ResultStore, DeathOnGarbage)
{
    EXPECT_DEATH(deserializeReport("not a report"),
                 "metadata header");
}

const std::vector<std::string> kRunColumns = {
    "workload", "core",     "voltage_mv", "freq_mhz",
    "campaign", "run",      "effects",    "sdc_events",
    "ce",       "ue",       "exit_code",  "seconds",
    "ipc",      "activity", "ce_sites",   "ue_sites"};

TEST(ResultStore, QuotedFieldsRoundTripInTheCsvWriterForm)
{
    CharacterizationReport report;
    report.chipName = "TSS#7";
    report.corner = sim::ChipCorner::TSS;
    report.frequency = 1200;
    report.watchdogInterventions = 3;
    report.telemetry.retries = 2;

    ClassifiedRun odd;
    odd.key.workloadId = "odd,\"id\"\nx/ref";
    odd.key.core = 3;
    odd.key.voltage = 900;
    odd.key.frequency = 1200;
    odd.key.campaign = 1;
    odd.effects.add(Effect::SDC);
    odd.effects.add(Effect::CE);
    odd.effects.add(Effect::UE);
    odd.sdcEvents = 2;
    odd.correctedErrors = 5;
    odd.uncorrectedErrors = 3;
    odd.seconds = 0.25;
    odd.avgIpc = 1.5;
    odd.activityFactor = 0.7;
    odd.correctedBySite = {{"L2Cache", 4}, {"DRAM", 1}};
    odd.uncorrectedBySite = {{"L3Cache", 2}, {"odd \"site\"", 1}};

    ClassifiedRun crashed;
    crashed.key.workloadId = "mcf/ref";
    crashed.key.voltage = 880;
    crashed.key.frequency = 1200;
    crashed.key.runIndex = 4;
    crashed.effects.add(Effect::AC);
    crashed.effects.add(Effect::SC);
    crashed.exitCode = -11;
    crashed.seconds = 0.0000014;
    report.allRuns = {odd, crashed};

    // What the CsvWriter-based emitter wrote, field by field.
    std::ostringstream golden;
    golden << "# vmargin-report chip=TSS#7 corner=TSS freq=1200 "
              "watchdog=3 retries=2 backoff_events=0 backoff_us=0 "
              "watchdog_retries=0 lost=0 fallback_rounds=0\n";
    util::CsvWriter writer(golden);
    writer.writeHeader(kRunColumns);
    writer.writeRow({"odd,\"id\"\nx/ref", "3", "900", "1200", "1", "0",
                     "SDC,CE,UE", "2", "5", "3", "0", "0.250000",
                     "1.5000", "0.7000", "DRAM:1;L2Cache:4",
                     "L3Cache:2;odd \"site\":1"});
    writer.writeRow({"mcf/ref", "0", "880", "1200", "0", "4", "AC,SC",
                     "0", "0", "0", "-11", "0.000001", "0.0000",
                     "0.0000", "", ""});

    const std::string bytes = serializeReport(report);
    EXPECT_EQ(bytes, golden.str());

    const CharacterizationReport back = deserializeReport(bytes);
    ASSERT_EQ(back.allRuns.size(), 2u);
    EXPECT_EQ(back.allRuns[0], odd);
    EXPECT_EQ(back.allRuns[1].key, crashed.key);
    EXPECT_EQ(back.allRuns[1].seconds, 0.000001);
    EXPECT_EQ(back.chipName, "TSS#7");
    EXPECT_EQ(back.telemetry.retries, 2u);
    EXPECT_EQ(serializeReport(back), bytes);
}

/** A one-run report document whose run row is @p row and whose
 *  metadata carries @p freq. */
std::string
reportWithRow(const std::string &row, const std::string &freq = "2400")
{
    std::string text = "# vmargin-report chip=TTT#0 corner=TTT freq=" +
                       freq + " watchdog=0 retries=0\n";
    for (size_t c = 0; c < kRunColumns.size(); ++c)
        text += kRunColumns[c] + (c + 1 < kRunColumns.size() ? "," : "\n");
    return text + row + "\n";
}

const std::string kGoodRow =
    "bwaves/ref,0,930,2400,0,0,NO,0,0,0,0,0.125000,1.4300,0.6100,,";

TEST(ResultStore, HandWrittenRowParses)
{
    const auto report = deserializeReport(reportWithRow(kGoodRow));
    ASSERT_EQ(report.allRuns.size(), 1u);
    EXPECT_EQ(report.allRuns[0].key.voltage, 930);
    EXPECT_EQ(report.allRuns[0].seconds, 0.125);
}

TEST(ResultStore, DeathOnTruncatedRowNamesLineAndColumn)
{
    // A file cut mid-line: the last row stops after 9 of 16 fields.
    EXPECT_DEATH(deserializeReport(reportWithRow(
                     "bwaves/ref,0,930,2400,0,0,NO,0,0")),
                 "line 3: row ends before column 'ue'");
    EXPECT_DEATH(deserializeReport(reportWithRow("bwaves/ref")),
                 "line 3: row ends before column 'core'");
    EXPECT_DEATH(deserializeReport(reportWithRow(kGoodRow + ",extra")),
                 "line 3: 17 fields, but the header has 16");
}

TEST(ResultStore, DeathOnBadNumberNamesColumnLineAndValue)
{
    EXPECT_DEATH(
        deserializeReport(reportWithRow(
            "bwaves/ref,0,9x5,2400,0,0,NO,0,0,0,0,0.125000,1.4300,"
            "0.6100,,")),
        "line 3: column 'voltage_mv' has bad value '9x5'");
    EXPECT_DEATH(
        deserializeReport(reportWithRow(
            "bwaves/ref,0,930,2400,0,0,NO,0,0,0,0,abc,1.4300,0.6100,,")),
        "line 3: column 'seconds' has bad value 'abc'");
    EXPECT_DEATH(
        deserializeReport(reportWithRow(
            "bwaves/ref,zero,930,2400,0,0,NO,0,0,0,0,0.125000,1.4300,"
            "0.6100,,")),
        "line 3: column 'core' has bad value 'zero'");
    EXPECT_DEATH(
        deserializeReport(reportWithRow(
            "bwaves/ref,0,930,2400,0,0,NO,0,-1,0,0,0.125000,1.4300,"
            "0.6100,,")),
        "line 3: column 'ce' has bad value '-1'");
}

TEST(ResultStore, DeathOnBadHeaderValueNamesKey)
{
    EXPECT_DEATH(deserializeReport(reportWithRow(kGoodRow, "24OO")),
                 "line 1: key 'freq' has bad value '24OO'");
    EXPECT_DEATH(deserializeReport(
                     "# vmargin-report chip=TTT#0 watchdog=-3\n"),
                 "line 1: key 'watchdog' has bad value '-3'");
}

TEST(ResultStore, DeathOnMissingColumnNamesIt)
{
    EXPECT_DEATH(deserializeReport("# vmargin-report chip=TTT#0\n"
                                   "workload,core\n"),
                 "line 2: missing column 'voltage_mv'");
}

} // namespace
} // namespace vmargin
