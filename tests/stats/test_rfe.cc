/**
 * @file
 * Unit tests for Recursive Feature Elimination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "stats/metrics.hh"
#include "stats/rfe.hh"
#include "stats/scaler.hh"
#include "util/rng.hh"

namespace vmargin::stats
{
namespace
{

/** Dataset where y depends only on columns `signal`. */
struct Synthetic
{
    Matrix x;
    Vector y;
};

Synthetic
makeSynthetic(size_t samples, size_t features,
              const std::vector<size_t> &signal, double noise,
              Seed seed)
{
    util::Rng rng(seed);
    Synthetic data;
    data.x = Matrix(samples, features);
    data.y.assign(samples, 0.0);
    for (size_t i = 0; i < samples; ++i) {
        for (size_t j = 0; j < features; ++j)
            data.x(i, j) = rng.uniform(-1, 1);
        double y = 0.5;
        for (size_t k = 0; k < signal.size(); ++k)
            y += (2.0 + static_cast<double>(k)) *
                 data.x(i, signal[k]);
        data.y[i] = y + rng.gaussian(0.0, noise);
    }
    return data;
}

TEST(Rfe, FindsSignalFeatures)
{
    const std::vector<size_t> signal{3, 11, 17};
    const auto data = makeSynthetic(120, 20, signal, 0.05, 1);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 3);
    ASSERT_EQ(result.selected.size(), 3u);
    for (size_t s : signal)
        EXPECT_NE(std::find(result.selected.begin(),
                            result.selected.end(), s),
                  result.selected.end())
            << "signal feature " << s << " was eliminated";
}

TEST(Rfe, OrdersByImportance)
{
    // Coefficients 2, 3, 4 on features 0, 1, 2: the strongest
    // feature (2) should rank first.
    const auto data = makeSynthetic(200, 6, {0, 1, 2}, 0.01, 2);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 3);
    EXPECT_EQ(result.selected.front(), 2u);
}

TEST(Rfe, EliminationOrderHasDroppedFeatures)
{
    const auto data = makeSynthetic(60, 8, {0}, 0.05, 3);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 2);
    EXPECT_EQ(result.eliminationOrder.size(), 6u);
    // Nothing selected also appears in the elimination order.
    for (size_t s : result.selected)
        EXPECT_EQ(std::count(result.eliminationOrder.begin(),
                             result.eliminationOrder.end(), s),
                  0);
}

TEST(Rfe, KeepAllIsIdentitySelection)
{
    const auto data = makeSynthetic(40, 5, {1}, 0.05, 4);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 5);
    EXPECT_EQ(result.selected.size(), 5u);
    EXPECT_TRUE(result.eliminationOrder.empty());
}

TEST(Rfe, BatchedDropsReachTarget)
{
    const auto data = makeSynthetic(80, 30, {5, 6}, 0.05, 5);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 2, 7);
    EXPECT_EQ(result.selected.size(), 2u);
    EXPECT_EQ(result.eliminationOrder.size(), 28u);
}

TEST(Rfe, SurvivesMoreFeaturesThanSamples)
{
    // The paper's regime: 101 features, 40 samples. The ridge inside
    // RFE must keep the normal equations solvable.
    const auto data = makeSynthetic(40, 101, {10, 50}, 0.05, 6);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 5, 8);
    EXPECT_EQ(result.selected.size(), 5u);
    EXPECT_NE(std::find(result.selected.begin(),
                        result.selected.end(), size_t{10}),
              result.selected.end());
    EXPECT_NE(std::find(result.selected.begin(),
                        result.selected.end(), size_t{50}),
              result.selected.end());
}

TEST(Rfe, ToleratesDuplicatedColumns)
{
    // Perfectly collinear copies of the signal column must not make
    // the elimination blow up.
    auto data = makeSynthetic(60, 6, {0}, 0.02, 7);
    for (size_t i = 0; i < data.x.rows(); ++i)
        data.x(i, 5) = data.x(i, 0);
    const auto result =
        recursiveFeatureElimination(data.x, data.y, 2);
    ASSERT_EQ(result.selected.size(), 2u);
    // One of the two copies must survive.
    const bool has_copy =
        std::count(result.selected.begin(), result.selected.end(),
                   size_t{0}) +
            std::count(result.selected.begin(),
                       result.selected.end(), size_t{5}) >=
        1;
    EXPECT_TRUE(has_copy);
}

/**
 * The per-round fit RFE used before it reused one Gram matrix: every
 * round selects the surviving columns, forms X^T X / n + lambda I and
 * X^T y / n from them and solves. The production fit must match it
 * bit for bit.
 */
RfeResult
referenceRfe(const Matrix &x, const Vector &y, size_t keep,
             size_t drop_per_round)
{
    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    const double y_mean = mean(y);
    Vector yc(y.size());
    for (size_t i = 0; i < y.size(); ++i)
        yc[i] = y[i] - y_mean;

    std::vector<size_t> active(x.cols());
    std::iota(active.begin(), active.end(), size_t{0});
    RfeResult result;
    Vector weights;
    while (true) {
        const Matrix sub = xs.selectColumns(active);
        const double n = static_cast<double>(sub.rows());
        const Matrix xt = sub.transposed();
        Matrix gram = xt.multiply(sub);
        for (size_t r = 0; r < gram.rows(); ++r)
            for (size_t c = 0; c < gram.cols(); ++c)
                gram(r, c) /= n;
        for (size_t i = 0; i < gram.rows(); ++i)
            gram(i, i) += 1e-3;
        Vector xty = xt.multiply(yc);
        for (auto &value : xty)
            value /= n;
        weights = solveLinearSystem(gram, xty);

        if (active.size() == keep)
            break;
        std::vector<size_t> order(active.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) {
                      return std::fabs(weights[a]) <
                             std::fabs(weights[b]);
                  });
        const size_t to_drop =
            std::min(drop_per_round, active.size() - keep);
        std::vector<size_t> drop_positions(
            order.begin(), order.begin() + static_cast<long>(to_drop));
        std::sort(drop_positions.begin(), drop_positions.end(),
                  std::greater<size_t>());
        for (size_t pos : drop_positions) {
            result.eliminationOrder.push_back(active[pos]);
            active.erase(active.begin() + static_cast<long>(pos));
        }
    }
    std::vector<size_t> order(active.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::fabs(weights[a]) > std::fabs(weights[b]);
    });
    for (size_t pos : order) {
        result.selected.push_back(active[pos]);
        result.finalWeights.push_back(weights[pos]);
    }
    return result;
}

/** Sample-matrix shape: wide like the Vmin split (32 x 101), tall
 *  like the severity split (300 x 102). */
struct Shape
{
    size_t samples;
    size_t features;
};

/** (shape, drop_per_round, with degenerate columns). */
using EquivalenceCase = std::tuple<Shape, size_t, bool>;

class RfeReferenceEquivalence
    : public ::testing::TestWithParam<EquivalenceCase>
{
};

TEST_P(RfeReferenceEquivalence, MatchesPerRoundFitExactly)
{
    const auto [shape, drop, degenerate] = GetParam();
    const size_t n = shape.samples;
    auto data = makeSynthetic(n, shape.features, {2, 40, 77}, 0.1,
                              n * 1000 + shape.features);
    // A near-multiple of a signal column, like the PMU counter
    // families, so the ranking leans on the ridge term.
    for (size_t i = 0; i < n; ++i)
        data.x(i, 60) = 3.0 * data.x(i, 40) + 1e-3 * data.x(i, 61);
    if (degenerate) {
        for (size_t i = 0; i < n; ++i) {
            data.x(i, 7) = 4.25;           // zero variance
            data.x(i, 90) = data.x(i, 77); // exact duplicate
        }
    }

    const RfeResult expected = referenceRfe(data.x, data.y, 5, drop);
    const RfeResult actual =
        recursiveFeatureElimination(data.x, data.y, 5, drop);
    EXPECT_EQ(actual.selected, expected.selected);
    EXPECT_EQ(actual.eliminationOrder, expected.eliminationOrder);
    EXPECT_EQ(actual.finalWeights, expected.finalWeights);
    EXPECT_EQ(actual.eliminationOrder.size(), shape.features - 5);
}

std::string
caseName(const ::testing::TestParamInfo<EquivalenceCase> &info)
{
    const Shape shape = std::get<0>(info.param);
    return std::to_string(shape.samples) + "x" +
           std::to_string(shape.features) + "_drop" +
           std::to_string(std::get<1>(info.param)) +
           (std::get<2>(info.param) ? "_degenerate" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSteps, RfeReferenceEquivalence,
    ::testing::Combine(::testing::Values(Shape{32, 101}, Shape{300, 102}),
                       ::testing::Values(size_t{1}, size_t{8}),
                       ::testing::Bool()),
    caseName);

TEST(Rfe, DeathOnBadArguments)
{
    const auto data = makeSynthetic(10, 4, {0}, 0.1, 8);
    EXPECT_DEATH(recursiveFeatureElimination(data.x, data.y, 0),
                 "keep");
    EXPECT_DEATH(recursiveFeatureElimination(data.x, data.y, 5),
                 "keep");
    EXPECT_DEATH(recursiveFeatureElimination(data.x, data.y, 2, 0),
                 "drop_per_round");
}

} // namespace
} // namespace vmargin::stats
