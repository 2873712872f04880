/**
 * @file
 * The campaign executor: one plan -> execute -> merge sweep core
 * behind both entry points, the single-chip
 * CharacterizationFramework::characterize() and the FleetExecutor
 * (core/fleet).
 *
 * The paper ran its characterization on three X-Gene 2 machines
 * concurrently because full V/F characterization is a multi-day
 * wall-clock problem. Our simulated sweep has the same shape and a
 * stronger property: every (chip, workload, core) cell's measurement
 * is a pure function of its experiment coordinates — run seeds and
 * fault streams are rebased per campaign (scopeTo), never shared
 * across cells. The sweep core exploits that by running each
 * in-flight cell on its own fresh replica of its chip's prototype
 * platform (same corner, serial, enhancements and fault plan
 * configuration) across a work-stealing thread pool, then merging
 * results per chip in canonical cell order (workload-major,
 * core-minor, the FrameworkConfig list order). A single-chip sweep
 * is simply the one-chip case of that pipeline.
 *
 * Determinism contract: the emitted report — CSV, summary and
 * serialized form — is byte-identical for any worker count,
 * including 1, and identical to a journal-resumed or cache-served
 * sweep of the same configuration. The write-ahead journal and the
 * cell-result cache are appended from worker threads in completion
 * order (their append paths are mutex-guarded), so their on-disk
 * cell order is the one artifact that may differ between runs —
 * even at one worker, whose pick order depends on how far the
 * planning thread got submitting — and both tolerate arbitrary order
 * on load.
 */

#ifndef VMARGIN_CORE_EXECUTOR_HH
#define VMARGIN_CORE_EXECUTOR_HH

#include <string>
#include <vector>

#include "campaign.hh"
#include "framework.hh"
#include "ledger.hh"

namespace vmargin
{

/**
 * Run all campaign repetitions of one (workload, core) cell through
 * @p runner into @p cell: sets its workload and core, and appends
 * its runs and recovery telemetry (into whatever capacity the caller
 * reserved for cell.runs). Shared by the sequential measureCell()
 * entry point and the sweep core's workers (each worker passes a
 * runner bound to its own platform replica).
 */
void measureCellWith(CampaignRunner &runner,
                     const wl::WorkloadProfile &workload, CoreId core,
                     const FrameworkConfig &config,
                     CellMeasurement &cell);

/** One chip of a sweep: its data-model identity and the prototype
 *  platform its cells replicate (read, never executed on). */
struct SweepChip
{
    ChipRef chip;
    const sim::Platform *prototype = nullptr;
};

/**
 * The sweep core both entry points run: plan every (chip, workload,
 * core) cell chip-major under one fresh-cell budget, serve each from
 * the journal, then the cache, else measure it fresh on the shared
 * pool; flush journal and cache at the merge barrier; merge per chip
 * in plan order.
 *
 * @param chips the sweep's chips, in canonical order
 * @param config the sweep (already validated)
 * @param journal_header binding header of config.journalPath
 * @param implicit_chip chip a version-1 journal's cells map onto
 * @param metric_prefix telemetry key prefix ("executor", "fleet");
 *        every key the sweep books is named "<prefix>.<name>"
 * @return one report per chip, in @p chips order
 */
std::vector<CharacterizationReport>
runSweep(const std::vector<SweepChip> &chips,
         const FrameworkConfig &config,
         const std::string &journal_header, ChipRef implicit_chip,
         const std::string &metric_prefix);

} // namespace vmargin

#endif // VMARGIN_CORE_EXECUTOR_HH
