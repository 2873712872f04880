/**
 * @file
 * Tests for the profiling + prediction pipeline (paper section 4).
 * Uses a reduced workload population for speed; the full-population
 * numbers are produced by the fig7/fig8 bench harnesses.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/predictor.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class PredictorTest : public ::testing::Test
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
        config.maxEpochs = 10;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));

        Profiler profiler(platform_);
        profiles_ = new std::vector<WorkloadCounters>(
            profiler.profileSuite(config.workloads, 0, 10));
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

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
    static std::vector<WorkloadCounters> *profiles_;
};

sim::Platform *PredictorTest::platform_ = nullptr;
CharacterizationReport *PredictorTest::report_ = nullptr;
std::vector<WorkloadCounters> *PredictorTest::profiles_ = nullptr;

TEST_F(PredictorTest, ProfilesCleanAndComplete)
{
    ASSERT_EQ(profiles_->size(), 10u);
    for (const auto &profile : *profiles_) {
        EXPECT_GT(profile.instructions, 0u);
        EXPECT_GT(profile.perKilo(sim::PmuEvent::CPU_CYCLES), 0.0);
        EXPECT_NEAR(profile.perKilo(sim::PmuEvent::INST_RETIRED),
                    1000.0, 1.0);
    }
}

TEST_F(PredictorTest, FeatureMatrixShape)
{
    const auto features = counterFeatureMatrix(*profiles_);
    EXPECT_EQ(features.rows(), 10u);
    EXPECT_EQ(features.cols(), sim::kNumPmuEvents);
    EXPECT_EQ(counterFeatureNames().size(), sim::kNumPmuEvents);
}

TEST_F(PredictorTest, VminDatasetAlignsWithReport)
{
    const auto ds = buildVminDataset(*profiles_, *report_, 0);
    ASSERT_EQ(ds.y.size(), 10u);
    for (size_t i = 0; i < ds.sampleIds.size(); ++i)
        EXPECT_DOUBLE_EQ(
            ds.y[i],
            report_->cell(ds.sampleIds[i], 0).analysis.vmin);
}

TEST_F(PredictorTest, SeverityDatasetFromUnsafeRegion)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    EXPECT_GT(ds.y.size(), 30u);
    EXPECT_EQ(ds.x.cols(), sim::kNumPmuEvents + 1);
    EXPECT_EQ(ds.featureNames.back(), "VOLTAGE_MV");
    for (double sev : ds.y) {
        EXPECT_GT(sev, 0.0);
        EXPECT_LE(sev, maxSeverity());
    }
    // The voltage column must carry real voltages.
    const auto voltages = ds.x.col(ds.x.cols() - 1);
    for (double v : voltages) {
        EXPECT_GE(v, 840.0);
        EXPECT_LE(v, 930.0);
    }
}

TEST_F(PredictorTest, SeverityPredictionBeatsNaive)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    EvaluationConfig config;
    const auto eval = evaluatePredictor(ds, config);
    EXPECT_EQ(eval.selectedFeatures.size(), 5u);
    EXPECT_EQ(eval.selectedFeatureNames.size(), 5u);
    EXPECT_LT(eval.rmse, eval.naiveRmse * 0.7)
        << "the linear model must clearly beat the naive baseline";
    EXPECT_GT(eval.r2, 0.6);
}

TEST_F(PredictorTest, SeverityPredictionWorksOnRobustCore)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 4);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_LT(eval.rmse, eval.naiveRmse * 0.8);
    EXPECT_GT(eval.r2, 0.5);
}

TEST_F(PredictorTest, LinearPredictorRoundTrip)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    LinearPredictor predictor;
    predictor.fit(ds.x, ds.y, 5, 4);
    ASSERT_TRUE(predictor.trained());
    const auto all = predictor.predictAll(ds.x);
    EXPECT_EQ(all.size(), ds.y.size());
    EXPECT_DOUBLE_EQ(predictor.predict(ds.x.row(0)), all[0]);
}

TEST_F(PredictorTest, PredictAppendedEqualsPredictOfTheAppendedRow)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    LinearPredictor predictor;
    predictor.fit(ds.x, ds.y, 5, 4);
    for (size_t r = 0; r < ds.x.rows(); ++r) {
        const stats::Vector full = ds.x.row(r);
        const stats::Vector counters(full.begin(), full.end() - 1);
        EXPECT_EQ(predictor.predictAppended(counters, full.back()),
                  predictor.predict(full))
            << "row " << r;
    }
}

TEST(LinearPredictorDeath, RowTooShortNamesTheFeature)
{
    // Three features, all kept: selected indices 0, 1 and 2.
    std::vector<stats::Vector> rows;
    stats::Vector y;
    for (int i = 0; i < 12; ++i) {
        const double a = i;
        const double b = (i * 7) % 5;
        const double c = (i * 3) % 4;
        rows.push_back({a, b, c});
        y.push_back(2.0 * a - b + 0.5 * c);
    }
    LinearPredictor predictor;
    predictor.fit(stats::Matrix::fromRows(rows), y, 3);
    ASSERT_EQ(predictor.selectedFeatures().size(), 3u);
    EXPECT_DEATH((void)predictor.predictAppended({1.0}, 2.0),
                 "sample too short for feature 2");
    EXPECT_DEATH((void)predictor.predict({1.0, 2.0}),
                 "sample too short for feature 2");
}

TEST_F(PredictorTest, PredictedSeverityGrowsAsVoltageDrops)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    LinearPredictor predictor;
    predictor.fit(ds.x, ds.y, 5, 4);
    // Take one sample and sweep only its voltage feature.
    stats::Vector hi = ds.x.row(0);
    stats::Vector lo = hi;
    hi[hi.size() - 1] = 910.0;
    lo[lo.size() - 1] = 870.0;
    EXPECT_GT(predictor.predict(lo), predictor.predict(hi));
}

TEST_F(PredictorTest, EvaluationReportsSplitSizes)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_EQ(eval.trainSamples + eval.testSamples, ds.y.size());
    EXPECT_NEAR(static_cast<double>(eval.testSamples) /
                    static_cast<double>(ds.y.size()),
                0.2, 0.05);
    EXPECT_EQ(eval.truth.size(), eval.testSamples);
    EXPECT_EQ(eval.predicted.size(), eval.testSamples);
}


uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

// The RFE + OLS pipeline's exact output on the fixture: any change to
// the stats layer must reproduce these features and bit patterns.
TEST_F(PredictorTest, VminPipelineOutputIsPinned)
{
    const auto ds = buildVminDataset(*profiles_, *report_, 0);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_EQ(eval.selectedFeatures,
              (std::vector<size_t>{59, 88, 34, 98, 33}));
    EXPECT_EQ(bitsOf(eval.r2), 0x3fa35b39847ee5b0u) << eval.r2;
    EXPECT_EQ(bitsOf(eval.rmse), 0x40139e492cd90293u) << eval.rmse;
}

TEST_F(PredictorTest, SeverityPipelineOutputIsPinned)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_EQ(eval.selectedFeatures,
              (std::vector<size_t>{101, 81, 88, 34, 35}));
    EXPECT_EQ(bitsOf(eval.r2), 0x3fec1fa04d10335au) << eval.r2;
    EXPECT_EQ(bitsOf(eval.rmse), 0x3ffa179af5c3f101u) << eval.rmse;
}

} // namespace
} // namespace vmargin
