/**
 * @file
 * Tests for the closed-loop governor daemon: it must harvest margin
 * without incidents at tolerance 0, go deeper (and riskier) with a
 * tolerance, and recover through the watchdog when it crashes.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/predictor.hh"
#include "sched/daemon.hh"
#include "sim/platform.hh"
#include "workloads/spec.hh"

namespace vmargin::sched
{
namespace
{

class DaemonTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        platform_ = new sim::Platform(sim::XGene2Params{},
                                      sim::ChipCorner::TTT, 1);
        CharacterizationFramework framework(platform_);
        FrameworkConfig config;
        config.workloads = wl::headlineSuite();
        config.cores = {0, 4};
        config.campaigns = 6;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));
        Profiler profiler(platform_);
        profiles_ = new std::vector<WorkloadCounters>(
            profiler.profileSuite(wl::headlineSuite(), 0, 8));
    }

    static void
    TearDownTestSuite()
    {
        delete profiles_;
        delete report_;
        delete platform_;
        profiles_ = nullptr;
        report_ = nullptr;
        platform_ = nullptr;
    }

    /** Governor with trained predictors for cores 0 and 4. */
    VoltageGovernor
    trainedGovernor(double tolerance, int guard_steps) const
    {
        GovernorConfig config;
        config.severityTolerance = tolerance;
        config.guardSteps = guard_steps;
        VoltageGovernor governor(config);
        for (CoreId core : {0, 4}) {
            const auto dataset =
                buildSeverityDataset(*profiles_, *report_, core);
            LinearPredictor predictor;
            predictor.fit(dataset.x, dataset.y, 5, 8);
            governor.setPredictor(core, std::move(predictor));
        }
        return governor;
    }

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
    static std::vector<WorkloadCounters> *profiles_;
};

sim::Platform *DaemonTest::platform_ = nullptr;
CharacterizationReport *DaemonTest::report_ = nullptr;
std::vector<WorkloadCounters> *DaemonTest::profiles_ = nullptr;

TEST_F(DaemonTest, PredictSeverityEqualsTheCopyAndAppendPrediction)
{
    const VoltageGovernor governor = trainedGovernor(0.0, 1);
    const GovernorConfig &config = governor.config();
    for (CoreId core : {0, 4}) {
        // The same deterministic fit trainedGovernor() installed.
        const auto dataset =
            buildSeverityDataset(*profiles_, *report_, core);
        LinearPredictor predictor;
        predictor.fit(dataset.x, dataset.y, 5, 8);
        // The comparison covers the appended voltage only if the
        // model reads it.
        const auto &selected = predictor.selectedFeatures();
        ASSERT_NE(std::find(selected.begin(), selected.end(),
                            sim::kNumPmuEvents),
                  selected.end());
        for (const auto &profile : *profiles_) {
            CoreObservation obs;
            obs.core = core;
            for (size_t e = 0; e < sim::kNumPmuEvents; ++e)
                obs.counterFeatures.push_back(
                    profile.perKilo(static_cast<sim::PmuEvent>(e)));
            for (MilliVolt v = config.nominal; v >= config.floor;
                 v -= config.step) {
                stats::Vector appended = obs.counterFeatures;
                appended.push_back(static_cast<double>(v));
                EXPECT_EQ(governor.predictSeverity(obs, v),
                          std::max(0.0, predictor.predict(appended)))
                    << "core " << core << ", " << profile.workloadId
                    << " at " << v << " mV";
            }
        }
    }
}

TEST_F(DaemonTest, SafeToleranceHarvestsWithoutIncidents)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);

    const std::vector<Placement> placements = {
        {"bwaves/ref", 0}, {"namd/ref", 4}};
    const auto result = daemon.run(placements, 10, 7);

    ASSERT_EQ(result.rounds.size(), 10u);
    EXPECT_LT(result.averageVoltage, 980.0)
        << "daemon must undervolt";
    EXPECT_GT(result.energySavingsPercent, 0.0);
    EXPECT_EQ(result.crashes, 0u);
    EXPECT_EQ(result.watchdogResets, 0u);
    EXPECT_EQ(result.abnormalRounds, 0u)
        << "tolerance 0 must keep every round clean";
    // The decision must respect the sensitive core's measured Vmin.
    const MilliVolt vmin0 =
        report_->cell("bwaves/ref", 0).analysis.vmin;
    for (const auto &round : result.rounds)
        EXPECT_GE(round.voltage, vmin0 - 5);
}

TEST_F(DaemonTest, ToleranceTradesSafetyForSavings)
{
    GovernorDaemon strict(platform_, trainedGovernor(0.0, 1));
    GovernorDaemon tolerant(platform_, trainedGovernor(4.0, 0));
    for (const auto &profile : *profiles_) {
        strict.registerProfile(profile);
        tolerant.registerProfile(profile);
    }
    const std::vector<Placement> placements = {
        {"leslie3d/ref", 0}, {"milc/ref", 4}};
    const auto safe = strict.run(placements, 8, 3);
    const auto risky = tolerant.run(placements, 8, 3);
    EXPECT_LT(risky.averageVoltage, safe.averageVoltage);
    EXPECT_GT(risky.energySavingsPercent,
              safe.energySavingsPercent);
}

TEST_F(DaemonTest, RecoversFromCrashesViaWatchdog)
{
    // A grossly over-tolerant governor drives into the crash
    // region; the daemon must keep running and count the damage.
    GovernorDaemon reckless(platform_, trainedGovernor(17.0, 0));
    for (const auto &profile : *profiles_)
        reckless.registerProfile(profile);
    const std::vector<Placement> placements = {
        {"bwaves/ref", 0}, {"namd/ref", 4}};
    const auto result = reckless.run(placements, 6, 11);
    ASSERT_EQ(result.rounds.size(), 6u);
    EXPECT_GT(result.abnormalRounds, 0u);
    if (result.crashes > 0) {
        EXPECT_GE(result.watchdogResets, 1u);
    }
    EXPECT_TRUE(platform_->responsive())
        << "daemon leaves the machine up";
}

TEST_F(DaemonTest, ReexecutionRecoversSdcs)
{
    // Aggressive tolerance guarantees SDCs; with re-execution on,
    // every corrupted task is redone at the safe voltage.
    GovernorDaemon daemon(platform_, trainedGovernor(6.0, 0));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    const std::vector<Placement> placements = {
        {"bwaves/ref", 0}, {"namd/ref", 4}};

    DaemonOptions options;
    options.maxEpochs = 8;
    options.reexecuteOnSdc = true;
    const auto recovered =
        daemon.run(placements, 8, 21, options);

    DaemonOptions no_recovery = options;
    no_recovery.reexecuteOnSdc = false;
    const auto raw = daemon.run(placements, 8, 21, no_recovery);

    EXPECT_GT(raw.abnormalRounds, 0u)
        << "tolerance 6 must actually produce SDCs for this test";
    EXPECT_GT(recovered.reexecutions, 0u);
    EXPECT_EQ(raw.reexecutions, 0u);
    // Recovery costs energy: at a tolerance this reckless nearly
    // every round re-executes, so the recovered variant must lose
    // against the raw (incorrect-results) one — quantifying why the
    // paper calls severity-4 territory "the worst" for exact codes.
    EXPECT_LT(recovered.energySavingsPercent,
              raw.energySavingsPercent);
}

TEST_F(DaemonTest, FatalOnNonPositiveRounds)
{
    // averageVoltage divides by rounds; a zero or negative count
    // must be rejected up front, not produce NaN statistics.
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    const std::vector<Placement> placements = {{"bwaves/ref", 0}};
    EXPECT_EXIT(daemon.run(placements, 0, 1),
                ::testing::ExitedWithCode(1),
                "rounds must be >= 1");
    EXPECT_EXIT(daemon.run(placements, -3, 1),
                ::testing::ExitedWithCode(1),
                "rounds must be >= 1");
}

TEST_F(DaemonTest, FatalOnBadClampThreshold)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    DaemonOptions options;
    options.clampAfterAbnormalRounds = 0;
    EXPECT_EXIT(daemon.run({{"bwaves/ref", 0}}, 1, 1, options),
                ::testing::ExitedWithCode(1),
                "clampAfterAbnormalRounds must be >= 1 \\(got 0\\)");
}

TEST_F(DaemonTest, FatalOnNegativeClampStep)
{
    // A negative step would make the graceful-degradation clamp lower
    // the voltage after an abnormal streak instead of raising it.
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    DaemonOptions options;
    options.clampStepMv = -10;
    EXPECT_EXIT(daemon.run({{"bwaves/ref", 0}}, 1, 1, options),
                ::testing::ExitedWithCode(1),
                "clampStepMv must be >= 0 \\(got -10\\)");
    options.clampStepMv = 0; // zero disables the clamp: accepted
    options.validate();
}

TEST_F(DaemonTest, FatalOnBadFlushBatch)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    DaemonOptions options;
    options.flushEveryRounds = 0;
    EXPECT_EXIT(daemon.run({{"bwaves/ref", 0}}, 1, 1, options),
                ::testing::ExitedWithCode(1),
                "flushEveryRounds must be >= 1 \\(got 0\\)");
}

TEST_F(DaemonTest, ClampsGovernorAfterAbnormalStreak)
{
    // A grossly over-tolerant governor misbehaves every round; with
    // a one-round clamp trigger the daemon must ratchet decisions
    // upward instead of repeating the same unsafe setpoint forever.
    GovernorDaemon reckless(platform_, trainedGovernor(17.0, 0));
    for (const auto &profile : *profiles_)
        reckless.registerProfile(profile);
    DaemonOptions options;
    options.maxEpochs = 8;
    options.clampAfterAbnormalRounds = 1;
    options.clampStepMv = 20;
    const auto result =
        reckless.run({{"bwaves/ref", 0}, {"namd/ref", 4}}, 6, 11,
                     options);
    ASSERT_GT(result.abnormalRounds, 0u)
        << "tolerance 17 must misbehave for this test to bite";
    EXPECT_GT(result.governorClampMv, 0);
    // The clamp is monotone: later rounds never dip below earlier
    // ones by more than the governor's own decision movement allows;
    // in particular the final round sits above the first.
    EXPECT_GE(result.rounds.back().voltage,
              result.rounds.front().voltage);
}

TEST(DaemonResilience, ServesEveryRoundUnderTotalNak)
{
    sim::Platform platform(sim::XGene2Params{},
                           sim::ChipCorner::TTT, 2);
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 21;
    platform.installFaultPlan(plan);

    // An untrained governor pins nominal; the point here is purely
    // that with every SLIMpro write NAKed the daemon neither panics
    // nor stops: it books each round as a fallback round and keeps
    // serving.
    GovernorDaemon daemon(&platform, VoltageGovernor{});
    Profiler profiler(&platform);
    daemon.registerProfile(
        profiler.profile(wl::findWorkload("bwaves/ref"), 0, 8));

    DaemonOptions options;
    options.maxEpochs = 8;
    const auto result =
        daemon.run({{"bwaves/ref", 0}}, 5, 3, options);

    ASSERT_EQ(result.rounds.size(), 5u);
    EXPECT_EQ(result.fallbackRounds, 5u);
    EXPECT_EQ(result.telemetry.fallbackRounds, 5u);
    EXPECT_GT(result.telemetry.retries, 0u);
    EXPECT_EQ(result.crashes, 0u)
        << "the machine never left nominal voltage";
    for (const auto &round : result.rounds) {
        EXPECT_TRUE(round.nominalFallback);
        EXPECT_EQ(round.voltage, 980);
    }
    EXPECT_TRUE(platform.responsive());
}

TEST(DaemonResilience, FallbackReasonsAreCoded)
{
    sim::Platform platform(sim::XGene2Params{},
                           sim::ChipCorner::TTT, 2);
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 21;
    platform.installFaultPlan(plan);

    GovernorDaemon daemon(&platform, VoltageGovernor{});
    Profiler profiler(&platform);
    daemon.registerProfile(
        profiler.profile(wl::findWorkload("bwaves/ref"), 0, 8));

    DaemonOptions options;
    options.maxEpochs = 8;
    const auto result =
        daemon.run({{"bwaves/ref", 0}}, 5, 3, options);

    // Every NAKed round must carry a machine-readable reason, and
    // the result must break the fallback total down by it.
    ASSERT_EQ(result.fallbackRounds, 5u);
    EXPECT_EQ(result.fallbackRetriesExhausted, 5u);
    EXPECT_EQ(result.fallbackMachineUnresponsive, 0u);
    for (const auto &round : result.rounds)
        EXPECT_EQ(static_cast<FallbackReason>(round.fallbackReason),
                  FallbackReason::RetriesExhausted);

    const std::string summary = formatDaemonSummary(result);
    EXPECT_NE(summary.find("nominal fallbacks  : 5 "
                           "(retries-exhausted 5, "
                           "machine-unresponsive 0)"),
              std::string::npos)
        << summary;
    const std::string report = formatDaemonReport(result);
    EXPECT_NE(report.find("reason=retries-exhausted"),
              std::string::npos)
        << report;
}

TEST_F(DaemonTest, FatalOnMissingProfile)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    const std::vector<Placement> placements = {{"bwaves/ref", 0}};
    EXPECT_EXIT(daemon.run(placements, 1, 1),
                ::testing::ExitedWithCode(1),
                "no registered profile");
}

TEST_F(DaemonTest, FatalOnEmptyPlacement)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    EXPECT_EXIT(daemon.run({}, 1, 1),
                ::testing::ExitedWithCode(1), "empty placement");
}

TEST_F(DaemonTest, UnmodelledCorePinsNominal)
{
    GovernorDaemon daemon(platform_, trainedGovernor(0.0, 1));
    for (const auto &profile : *profiles_)
        daemon.registerProfile(profile);
    // Core 6 has no predictor: fail-safe keeps nominal voltage.
    const std::vector<Placement> placements = {{"bwaves/ref", 6}};
    const auto result = daemon.run(placements, 3, 5);
    for (const auto &round : result.rounds)
        EXPECT_EQ(round.voltage, 980);
    EXPECT_NEAR(result.energySavingsPercent, 0.0, 1e-9);
}

} // namespace
} // namespace vmargin::sched
