/**
 * @file
 * Golden daemon reports: pins the hash of formatDaemonReport() for
 * the three session shapes the supervisor soak bench runs — an
 * unsupervised session, a supervised one, and a supervised one killed
 * through its round budget and resumed from its journal. The
 * kill/resume tests elsewhere only compare one run with another; these
 * pins catch a change that moves every run's bytes alike. The shapes
 * (training, hostile fault plan, placements, 24 rounds, seed 11)
 * match bench/supervisor_soak, so the pins equal the ones its CI job
 * checks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "sched/daemon.hh"
#include "sim/platform.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin::sched
{
namespace
{

constexpr int kRounds = 24;
constexpr Seed kSeed = 11;
constexpr Seed kUnsupervisedHash = 0x93e25c898547c26aULL;
constexpr Seed kSupervisedHash = 0x80ced1edda7dcdc2ULL;

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.staleRead = 0.05;
    plan.managementHang = 0.002;
    plan.watchdogMiss = 0.05;
    plan.seed = 99;
    return plan;
}

class DaemonGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        sim::Platform clean(sim::XGene2Params{},
                            sim::ChipCorner::TTT, 1);
        CharacterizationFramework framework(&clean);
        FrameworkConfig config;
        config.workloads = wl::headlineSuite();
        config.cores = {0, 4};
        config.campaigns = 6;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));
        Profiler profiler(&clean);
        profiles_ = new std::vector<WorkloadCounters>(
            profiler.profileSuite(wl::headlineSuite(), 0, 8));
    }

    static void
    TearDownTestSuite()
    {
        delete profiles_;
        delete report_;
        profiles_ = nullptr;
        report_ = nullptr;
    }

    /** One soak-shaped session on a fresh faulted platform; returns
     *  the report hash. */
    static Seed
    sessionHash(bool supervise, const std::string &journal = "",
                int budget = 0, bool expect_complete = true)
    {
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        platform.installFaultPlan(hostilePlan());
        GovernorConfig config;
        config.severityTolerance = 6.0;
        config.guardSteps = 0;
        VoltageGovernor governor(config);
        for (CoreId core : {0, 4}) {
            const auto dataset =
                buildSeverityDataset(*profiles_, *report_, core);
            LinearPredictor predictor;
            predictor.fit(dataset.x, dataset.y, 5, 8);
            governor.setPredictor(core, std::move(predictor));
        }
        GovernorDaemon daemon(&platform, std::move(governor));
        for (const auto &profile : *profiles_)
            daemon.registerProfile(profile);
        DaemonOptions options;
        options.maxEpochs = 8;
        options.supervise = supervise;
        options.journalPath = journal;
        options.roundBudget = budget;
        const DaemonResult result = daemon.run(
            {{"bwaves/ref", 0}, {"namd/ref", 4}}, kRounds, kSeed,
            options);
        EXPECT_EQ(result.complete, expect_complete);
        return util::hashSeed(formatDaemonReport(result));
    }

    static CharacterizationReport *report_;
    static std::vector<WorkloadCounters> *profiles_;
};

CharacterizationReport *DaemonGolden::report_ = nullptr;
std::vector<WorkloadCounters> *DaemonGolden::profiles_ = nullptr;

TEST_F(DaemonGolden, UnsupervisedSession)
{
    EXPECT_EQ(sessionHash(false), kUnsupervisedHash);
}

TEST_F(DaemonGolden, SupervisedSession)
{
    EXPECT_EQ(sessionHash(true), kSupervisedHash);
}

TEST_F(DaemonGolden, SupervisedSessionKilledAndResumed)
{
    const std::string journal = "/tmp/vmargin_daemon_golden_journal";
    std::remove(journal.c_str());
    sessionHash(true, journal, 9, false);
    EXPECT_EQ(sessionHash(true, journal), kSupervisedHash);
    std::remove(journal.c_str());
}

} // namespace
} // namespace vmargin::sched
