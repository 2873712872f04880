#include "rfe.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "metrics.hh"
#include "scaler.hh"
#include "util/logging.hh"

namespace vmargin::stats
{

using util::panicf;

namespace
{

/**
 * Ridge penalty of the per-round fit on standardized data:
 * (X^T X / n + lambda I)^-1 X^T y / n. The tiny ridge term keeps the
 * normal equations solvable when features outnumber samples (101
 * counters vs 40-100 samples in the paper), mimicking numpy's lstsq
 * behaviour inside scikit-learn's RFE. Normalizing by the sample
 * count gives lambda a scale-free meaning. PMU counters come in
 * families that are near-exact multiples of each other (MEM_ACCESS_RD
 * vs LD_RETIRED, ...); without a meaningful ridge the coefficients of
 * such a family are unidentifiable and the |weight| ranking RFE
 * relies on becomes noise.
 */
constexpr double kRidgeLambda = 1e-3;

/**
 * Ridge coefficients of the @p active columns, from the full-width
 * normalized Gram matrix @p gram (X^T X / n) and @p xty (X^T y / n).
 * Matrix::multiply sums every entry over the samples in the same
 * order whatever columns are selected, so this sub-block is bit for
 * bit the product a per-round fit of the selected columns would form.
 */
Vector
ridgeWeights(const Matrix &gram, const Vector &xty,
             const std::vector<size_t> &active)
{
    const size_t p = active.size();
    Matrix sub(p, p);
    Vector rhs(p);
    for (size_t i = 0; i < p; ++i) {
        const double *src = gram.rowData(active[i]);
        double *dst = sub.rowData(i);
        for (size_t j = 0; j < p; ++j)
            dst[j] = src[active[j]];
        dst[i] += kRidgeLambda;
        rhs[i] = xty[active[i]];
    }
    return solveLinearSystem(std::move(sub), std::move(rhs));
}

} // namespace

RfeResult
recursiveFeatureElimination(const Matrix &x, const Vector &y,
                            size_t keep, size_t drop_per_round)
{
    if (x.rows() == 0 || x.cols() == 0)
        panicf("RFE: empty feature matrix");
    if (x.rows() != y.size())
        panicf("RFE: ", x.rows(), " samples vs ", y.size(),
               " targets");
    if (keep == 0 || keep > x.cols())
        panicf("RFE: keep=", keep, " invalid for ", x.cols(),
               " features");
    if (drop_per_round == 0)
        panicf("RFE: drop_per_round must be >= 1");

    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    const double y_mean = mean(y);
    Vector yc(y.size());
    for (size_t i = 0; i < y.size(); ++i)
        yc[i] = y[i] - y_mean;

    // Build the Gram matrix and X^T y once; each round solves on the
    // surviving rows and columns.
    const Matrix xt = xs.transposed();
    Matrix gram = xt.multiply(xs);
    const double n = static_cast<double>(xs.rows());
    for (size_t r = 0; r < gram.rows(); ++r)
        for (size_t c = 0; c < gram.cols(); ++c)
            gram(r, c) /= n;
    Vector xty = xt.multiply(yc);
    for (auto &value : xty)
        value /= n;

    std::vector<size_t> active(x.cols());
    std::iota(active.begin(), active.end(), size_t{0});

    RfeResult result;
    Vector weights;

    while (true) {
        weights = ridgeWeights(gram, xty, active);

        if (active.size() == keep)
            break;

        // Rank active features by |weight| and drop the weakest.
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

    // Order the survivors by decreasing final importance.
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

} // namespace vmargin::stats
