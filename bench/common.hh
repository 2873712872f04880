/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses. Each
 * bench binary regenerates one table or figure of the paper and
 * prints the measured series next to the paper's reference values
 * (EXPERIMENTS.md records the comparison).
 */

#ifndef VMARGIN_BENCH_COMMON_HH
#define VMARGIN_BENCH_COMMON_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "sim/platform.hh"
#include "workloads/spec.hh"

namespace vmargin::bench
{

/** One characterized chip with its platform kept alive. */
struct ChipReport
{
    std::unique_ptr<sim::Platform> platform;
    CharacterizationReport report;
};

/**
 * Characterize the paper's three parts (TTT, TFF, TSS) over the
 * given workloads and cores at full speed, with the paper's
 * 10-campaign protocol.
 *
 * @param workloads benchmark list
 * @param cores core list
 * @param campaigns campaign repetitions (10 in the paper)
 * @param max_epochs execution-length trim for throughput
 */
std::vector<ChipReport>
characterizeThreeChips(const std::vector<wl::WorkloadProfile> &workloads,
                       const std::vector<CoreId> &cores,
                       int campaigns = 10, uint32_t max_epochs = 20);

/** Characterize one chip (any corner/serial) at a frequency. */
ChipReport characterizeChip(sim::ChipCorner corner, uint32_t serial,
                            const std::vector<wl::WorkloadProfile>
                                &workloads,
                            const std::vector<CoreId> &cores,
                            MegaHertz frequency, MilliVolt start,
                            MilliVolt end, int campaigns,
                            uint32_t max_epochs);

/** Wall-time statistics of one repeated throughput-bench series. */
struct RepeatedTiming
{
    int repetitions = 0;
    double medianSeconds = 0.0;
    double minSeconds = 0.0;
    double iqrSeconds = 0.0; ///< third minus first quartile
};

/**
 * Run @p once — one full repetition of a series, returning its wall
 * seconds — at least 7 times and until 0.3 s of work accumulated, so
 * a series of a few milliseconds still yields a stable median.
 */
RepeatedTiming repeatTimed(const std::function<double()> &once);

/** "reproduced" / "paper" comparison line for the bench output. */
void printComparison(const std::string &what, double measured,
                     double paper, const std::string &unit);

} // namespace vmargin::bench

#endif // VMARGIN_BENCH_COMMON_HH
