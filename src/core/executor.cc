#include "executor.hh"

#include <iterator>
#include <memory>
#include <string>

#include "cellcache.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "resultstore.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vmargin
{

void
measureCellWith(CampaignRunner &runner,
                const wl::WorkloadProfile &workload, CoreId core,
                const FrameworkConfig &config, CellMeasurement &cell)
{
    cell.workloadId = workload.id();
    cell.core = core;
    for (int rep = 0; rep < config.campaigns; ++rep) {
        CampaignConfig campaign;
        campaign.workload = workload;
        campaign.core = core;
        campaign.frequency = config.frequency;
        campaign.startVoltage = config.startVoltage;
        campaign.endVoltage = config.endVoltage;
        campaign.runsPerVoltage = config.runsPerVoltage;
        campaign.campaignIndex = static_cast<uint32_t>(rep);
        campaign.maxEpochs = config.maxEpochs;
        campaign.fanTarget = config.fanTarget;
        campaign.retry = config.retryPolicy;
        const CampaignResult result = runner.run(campaign);
        if (cell.runs.empty()) {
            // First campaign sizes the aggregate vector (a no-op
            // when the caller reserved more): later campaigns of the
            // same cell produce similar volumes, so one reservation
            // covers the whole loop.
            cell.runs.reserve(result.runs.size() *
                              static_cast<size_t>(config.campaigns));
        }
        cell.runs.insert(cell.runs.end(), result.runs.begin(),
                         result.runs.end());
        cell.watchdogInterventions += result.watchdogInterventions;
        cell.telemetry.merge(result.telemetry);
    }
}

namespace
{

/** One (chip, workload, core) cell of the sweep, chip-major in
 *  canonical chip order, workload-major and core-minor within. */
struct PlanEntry
{
    size_t chipIndex = 0;
    const wl::WorkloadProfile *workload = nullptr;
    CoreId core = 0;

    /** Journal- or cache-served measurement; runs fresh when unset. */
    CellMeasurement replayed;
    bool fromJournal = false;
    bool fromCache = false;

    bool fresh() const { return !fromJournal && !fromCache; }
};

/**
 * Fold one measured (or replayed) cell into a report being
 * assembled: runs stream into @p view and the report's aggregate
 * counters, then move into the report's run list (nothing reads the
 * cell after the merge), while a cell whose every run was lost to
 * management faults is degraded — accounted and omitted — rather
 * than aborting the sweep.
 */
void
mergeCellIntoReport(CharacterizationReport &report, LedgerView &view,
                    CellMeasurement &cell)
{
    if (cell.runs.empty()) {
        // Extreme hostility can lose a whole cell to the
        // management plane. Degrade: account the loss, omit
        // the cell, keep sweeping. (The empty cell was
        // journaled, so a resume will not redo it.)
        util::warnf("characterize: every run of ", cell.workloadId,
                    " on core ", cell.core,
                    " was lost to management faults; "
                    "cell omitted from the report");
        report.watchdogInterventions += cell.watchdogInterventions;
        report.telemetry.merge(cell.telemetry);
        return;
    }

    view.addAll(cell.runs);
    report.totalRuns += cell.runs.size();
    report.allRuns.insert(report.allRuns.end(),
                          std::make_move_iterator(cell.runs.begin()),
                          std::make_move_iterator(cell.runs.end()));
    report.watchdogInterventions += cell.watchdogInterventions;
    report.telemetry.merge(cell.telemetry);
}

/**
 * The telemetry one sweep books, fetched once per runSweep() under
 * the entry point's key prefix. Cell counts are exact; spans are
 * scheduling-class by nature.
 */
struct SweepStats
{
    explicit SweepStats(const std::string &prefix) : prefix(prefix) {}

    obs::Counter &counter(const std::string &name)
    {
        return reg.counter(prefix + "." + name);
    }
    obs::SpanStat &span(const std::string &name)
    {
        return reg.span(prefix + "." + name);
    }

    const std::string prefix;
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &chips = counter("chips");
    obs::Counter &cellsPlanned = counter("cells_planned");
    obs::Counter &cellsFresh = counter("cells_fresh");
    obs::Counter &cellsFromJournal = counter("cells_from_journal");
    obs::Counter &cacheHits = counter("cache_hits");
    obs::Counter &cacheMisses = counter("cache_misses");
    obs::Counter &cellsMeasured = counter("cells_measured");
    obs::SpanStat &planSpan = span("plan");
    obs::SpanStat &executeSpan = span("execute");
    obs::SpanStat &mergeSpan = span("merge");
    obs::SpanStat &cellSpan = span("cell");
    obs::SpanStat &mergeBarrier = span("merge_barrier");
    obs::SpanStat &chipMerge = span("chip_merge");
};

/**
 * One runSweep() call: its inputs, the journal and cache it serves
 * from and appends to, and what each phase hands the next — the plan,
 * the fresh cells' measurements and whether the budget cut the plan.
 */
struct Sweep
{
    Sweep(const std::vector<SweepChip> &chips,
          const FrameworkConfig &config, const std::string &prefix)
        : chips(chips), config(config), stats(prefix),
          configHashes(chips.size(), 0)
    {
    }

    const std::vector<SweepChip> &chips;
    const FrameworkConfig &config;
    SweepStats stats;
    std::unique_ptr<CampaignJournal> journal;
    std::unique_ptr<CellResultCache> cache;
    std::vector<Seed> configHashes; ///< per chip, when cached
    std::vector<PlanEntry> plan;
    std::vector<CellMeasurement> measured; ///< fresh cells, by plan slot
    bool complete = true;
};

/**
 * Open the sweep's journal and cache. The flush knobs shape
 * durability, never measurements — they are deliberately absent from
 * the binding header and cellConfigHash, so a journal written under
 * one policy resumes under another. One journal and one cache serve
 * every chip: the chip dimension in the ledger index keeps their
 * cells apart.
 */
void
openStores(Sweep &sweep, const std::string &journal_header,
           ChipRef implicit_chip)
{
    const FrameworkConfig &config = sweep.config;
    if (!config.journalPath.empty()) {
        sweep.journal = std::make_unique<CampaignJournal>(
            config.journalPath, config.writeOptions());
        sweep.journal->open(journal_header, implicit_chip);
    }
    if (!config.cachePath.empty()) {
        sweep.cache = std::make_unique<CellResultCache>(
            config.cachePath, config.writeOptions());
        sweep.cache->open();
        for (size_t ci = 0; ci < sweep.chips.size(); ++ci)
            sweep.configHashes[ci] =
                cellConfigHash(config, *sweep.chips[ci].prototype);
    }
}

/**
 * Plan: a chip-major walk in canonical order. Replays are resolved
 * (and copied — later appends invalidate the journal/cache pointers)
 * up front; the cell budget counts only fresh cells, sweep-wide, and
 * truncates the plan exactly where a sequential chip-by-chip walk
 * would have stopped.
 */
void
planCells(Sweep &sweep)
{
    const FrameworkConfig &config = sweep.config;
    SweepStats &stats = sweep.stats;
    std::vector<PlanEntry> &plan = sweep.plan;
    plan.reserve(sweep.chips.size() * config.workloads.size() *
                 config.cores.size());
    int fresh_cells = 0;
    {
        obs::ScopedSpan planning(stats.planSpan);
        for (size_t ci = 0; ci < sweep.chips.size() && sweep.complete;
             ++ci) {
            const ChipRef &chip = sweep.chips[ci].chip;
            for (const auto &workload : config.workloads) {
                for (const CoreId core : config.cores) {
                    PlanEntry entry;
                    entry.chipIndex = ci;
                    entry.workload = &workload;
                    entry.core = core;
                    const CellMeasurement *served =
                        sweep.journal ? sweep.journal->find(
                                            chip, workload.id(), core)
                                      : nullptr;
                    if (served) {
                        entry.fromJournal = true;
                        stats.cellsFromJournal.inc();
                    } else if (sweep.cache &&
                               (served = sweep.cache->find(
                                    sweep.configHashes[ci], chip,
                                    workload.id(), core))) {
                        entry.fromCache = true;
                        stats.cacheHits.inc();
                    } else if (config.cellBudget > 0 &&
                               fresh_cells >= config.cellBudget) {
                        // Session budget spent; the journal holds
                        // what finished, a later call picks up from
                        // here.
                        sweep.complete = false;
                        break;
                    } else {
                        if (sweep.cache)
                            stats.cacheMisses.inc();
                        ++fresh_cells;
                    }
                    if (served)
                        entry.replayed = *served;
                    plan.push_back(std::move(entry));
                }
                if (!sweep.complete)
                    break;
            }
        }
    }
    stats.cellsPlanned.inc(plan.size());
    stats.cellsFresh.inc(static_cast<uint64_t>(fresh_cells));
}

/**
 * Execute: fresh cells fan out across the pool. Each task measures
 * on a brand-new replica of its chip's prototype, so no cross-cell
 * state (RNG, thermal, SLIMpro, fault streams) is shared between
 * workers — the determinism contract. Journal and cache appends
 * happen per completed cell (write-ahead: a killed process keeps
 * every finished cell), in completion order, under their own locks.
 */
void
executeFresh(Sweep &sweep)
{
    const FrameworkConfig &config = sweep.config;
    const std::vector<PlanEntry> &plan = sweep.plan;
    SweepStats &stats = sweep.stats;
    // Per-chip progress counters are registered in canonical chip
    // order before any worker can touch them.
    std::vector<obs::Counter *> chip_progress;
    chip_progress.reserve(sweep.chips.size());
    for (const SweepChip &chip : sweep.chips)
        chip_progress.push_back(&stats.counter(
            "chip." + chip.chip.name() + ".cells"));
    // Fresh cells' run storage is reserved here, on the planning
    // thread, for the most runs a cell can produce. The runs outlive
    // the workers; allocated by a worker, they would fall back into
    // the top of its thread's malloc arena once freed, and glibc's
    // malloc_trim() never shrinks a thread arena's top. Measured on
    // the perfbench predict_rfe workload, that kept ~3.5 MiB per
    // worker resident for the rest of the process.
    sweep.measured.resize(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        if (!plan[i].fresh())
            continue;
        const MilliVolt step = sweep.chips[plan[i].chipIndex]
                                   .prototype->chip()
                                   .params()
                                   .voltageStepSize;
        const auto levels = static_cast<size_t>(
            (config.startVoltage - config.endVoltage) / step + 1);
        sweep.measured[i].runs.reserve(
            levels * static_cast<size_t>(config.runsPerVoltage *
                                         config.campaigns));
    }
    obs::ScopedSpan executing(stats.executeSpan);
    util::ThreadPool pool(config.workers);
    for (size_t i = 0; i < plan.size(); ++i) {
        if (!plan[i].fresh())
            continue;
        pool.submit([&, i] {
            obs::ScopedSpan cellSpan(stats.cellSpan);
            const SweepChip &chip = sweep.chips[plan[i].chipIndex];
            auto replica = chip.prototype->freshReplica();
            CampaignRunner runner(replica.get());
            CellMeasurement &cell = sweep.measured[i];
            measureCellWith(runner, *plan[i].workload, plan[i].core,
                            config, cell);
            cell.chip = chip.chip;
            if (sweep.journal || sweep.cache) {
                // The run frames are the same in both files: encode
                // and checksum them once; each adds its own commit.
                std::string run_frames;
                encodeRunFramesInto(run_frames, cell.runs);
                if (sweep.journal)
                    sweep.journal->append(cell, run_frames);
                if (sweep.cache)
                    sweep.cache->put(
                        sweep.configHashes[plan[i].chipIndex], cell,
                        run_frames);
            }
            stats.cellsMeasured.inc();
            chip_progress[plan[i].chipIndex]->inc();
        });
    }
    {
        obs::ScopedSpan barrier(stats.mergeBarrier);
        pool.wait();
    }
    // Merge barrier doubles as the durability barrier: a batched
    // group-commit policy drains here, so everything measured this
    // session is on disk before the reports are assembled.
    if (sweep.journal)
        sweep.journal->flush();
    if (sweep.cache)
        sweep.cache->flush();
}

/**
 * Merge: per chip, in plan order. One LedgerView per chip over that
 * chip's merged run stream derives every cell's analysis; cells keep
 * first-seen (= plan, = canonical) order, so each report is
 * byte-identical for any worker count and chip enumeration order.
 * Consumes the sweep's cells: their runs move into the reports.
 */
std::vector<CharacterizationReport>
mergePerChip(Sweep &sweep)
{
    std::vector<PlanEntry> &plan = sweep.plan;
    const auto cellAt = [&sweep](size_t i) -> CellMeasurement & {
        return sweep.plan[i].fresh() ? sweep.measured[i]
                                     : sweep.plan[i].replayed;
    };
    std::vector<CharacterizationReport> reports(sweep.chips.size());
    obs::ScopedSpan merging(sweep.stats.mergeSpan);
    size_t i = 0;
    for (size_t ci = 0; ci < sweep.chips.size(); ++ci) {
        obs::ScopedSpan chipMerging(sweep.stats.chipMerge);
        const sim::Chip &chip = sweep.chips[ci].prototype->chip();
        CharacterizationReport &report = reports[ci];
        report.chipName = chip.name();
        report.corner = chip.corner();
        report.frequency = sweep.config.frequency;
        report.complete = sweep.complete;
        size_t end = i;
        size_t chip_runs = 0;
        for (; end < plan.size() && plan[end].chipIndex == ci; ++end)
            chip_runs += cellAt(end).runs.size();
        report.allRuns.reserve(chip_runs);
        LedgerView view(sweep.config.weights);
        for (; i < end; ++i) {
            if (plan[i].fromJournal)
                ++report.telemetry.journalReplays;
            if (plan[i].fromCache)
                ++report.telemetry.cacheHits;
            mergeCellIntoReport(report, view, cellAt(i));
        }
        report.cells = std::move(view).cellResults();
    }
    return reports;
}

} // namespace

std::vector<CharacterizationReport>
runSweep(const std::vector<SweepChip> &chips,
         const FrameworkConfig &config,
         const std::string &journal_header, ChipRef implicit_chip,
         const std::string &metric_prefix)
{
    // The sink (when enabled) is strictly out-of-band: it reads the
    // registry at deterministic boundaries and never feeds anything
    // back into the report. It outlives the journal and cache, so its
    // destructor's drain comes after they close.
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!config.telemetryPath.empty())
        sink = std::make_unique<obs::TelemetrySink>(
            config.telemetryPath);
    Sweep sweep(chips, config, metric_prefix);
    sweep.stats.chips.inc(chips.size());

    openStores(sweep, journal_header, implicit_chip);
    planCells(sweep);
    executeFresh(sweep);
    if (sink)
        sink->flush(); // all execute-phase counters are booked
    std::vector<CharacterizationReport> reports = mergePerChip(sweep);
    // The sink's destructor would drain too, but an explicit final
    // flush keeps the line count deterministic (plan+execute line,
    // end-of-run line) before any caller-side snapshots.
    if (sink)
        sink->flush();
    return reports;
}

} // namespace vmargin
