/**
 * @file
 * Recursive Feature Elimination (paper section 4.2).
 *
 * Given an estimator that assigns weights to features (here: OLS on
 * standardized features), RFE repeatedly fits, drops the feature with
 * the smallest absolute weight, and refits, until the requested
 * number of features survives. The paper uses RFE to reduce 101 PMU
 * counters to the 5 that drive Vmin/severity prediction.
 */

#ifndef VMARGIN_STATS_RFE_HH
#define VMARGIN_STATS_RFE_HH

#include <cstddef>
#include <vector>

#include "matrix.hh"

namespace vmargin::stats
{

/** Result of a feature-elimination run. */
struct RfeResult
{
    /** Surviving feature indices (into the original columns),
     *  ordered by decreasing final |coefficient|. */
    std::vector<size_t> selected;

    /** Elimination order: first element was dropped first. */
    std::vector<size_t> eliminationOrder;

    /** Final standardized-space coefficients of the survivors,
     *  aligned with @ref selected. */
    Vector finalWeights;
};

/**
 * Run RFE down to @p keep features.
 *
 * @param x raw feature matrix (standardized internally)
 * @param y regression targets
 * @param keep number of surviving features (1 <= keep <= cols)
 * @param drop_per_round features removed per refit round (>= 1);
 *        1 reproduces classical RFE; larger values take fewer
 *        rounds but rank each batch from one fit. The Gram matrix
 *        X^T X is formed once per call, so a round costs one p x p
 *        solve over the p surviving features and no pass over the
 *        samples.
 */
RfeResult recursiveFeatureElimination(const Matrix &x, const Vector &y,
                                      size_t keep,
                                      size_t drop_per_round = 1);

} // namespace vmargin::stats

#endif // VMARGIN_STATS_RFE_HH
