/**
 * @file
 * fleet_sweep and fleet_rederive: the paper's three-chip Fig. 3/4
 * sweep run fresh through the fleet executor on all worker threads,
 * and the same sweep served entirely from a cell cache warmed in
 * setup, one single-worker client per worker thread.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common.hh"
#include "core/fleet.hh"
#include "core/resultstore.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace perfbench
{

using namespace vmargin;

namespace
{

/** Fig. 3 bands of the most robust core, per corner (mV). */
struct PaperBand
{
    sim::ChipCorner corner;
    MilliVolt lo;
    MilliVolt hi;
};
constexpr PaperBand kFig3Bands[] = {
    {sim::ChipCorner::TTT, 860, 885},
    {sim::ChipCorner::TFF, 870, 885},
    {sim::ChipCorner::TSS, 870, 900},
};

/** The sweep both fleet workloads run, without journal, cache or
 *  telemetry paths. */
FleetConfig
fleetConfig(const Options &options, int workers)
{
    FleetConfig config;
    config.chips = options.fleetChips;
    FrameworkConfig &fw = config.framework;
    fw.workloads = wl::headlineSuite();
    fw.cores = {0, 1, 2, 3, 4, 5, 6, 7};
    fw.frequency = 2400;
    fw.startVoltage = 930;
    fw.endVoltage = 830;
    fw.campaigns = 10;
    fw.maxEpochs = 20;
    fw.workers = workers;
    fw.flushEveryCells = 1;
    return config;
}

double
plannedCells(const FleetConfig &config)
{
    return static_cast<double>(config.chips.size() *
                               config.framework.workloads.size() *
                               config.framework.cores.size());
}

/**
 * Mean over chips of the distance between the chip's most-robust-
 * core Vmin band (min and max over workloads) and the paper's band
 * for its corner: (|lo - paper lo| + |hi - paper hi|) / 2.
 */
double
vminErrorMv(const FleetReport &fleet,
            const std::vector<wl::WorkloadProfile> &workloads)
{
    double total = 0.0;
    int chips = 0;
    for (const FleetChipReport &chip : fleet.chips) {
        MilliVolt lo = 100000;
        MilliVolt hi = 0;
        for (const auto &w : workloads) {
            const MilliVolt vmin = chip.report.bestCoreVmin(w.id());
            lo = std::min(lo, vmin);
            hi = std::max(hi, vmin);
        }
        for (const PaperBand &band : kFig3Bands) {
            if (band.corner != chip.chip.corner)
                continue;
            total += (std::abs(lo - band.lo) + std::abs(hi - band.hi)) /
                     2.0;
            ++chips;
        }
    }
    return chips ? total / chips : 0.0;
}

uint64_t
cacheHits(const FleetReport &fleet)
{
    uint64_t hits = 0;
    for (const FleetChipReport &chip : fleet.chips)
        hits += chip.report.telemetry.cacheHits;
    return hits;
}

/** One fleet run on its own template platform, journal emptied
 *  first; @p telemetry empty keeps the sink off. */
FleetReport
runFleet(const Options &options, int workers, const std::string &journal,
         const std::string &cache, const std::string &telemetry)
{
    removeFile(journal);
    removeFile(telemetry);
    FleetConfig config = fleetConfig(options, workers);
    config.framework.journalPath = journal;
    config.framework.cachePath = cache;
    config.framework.telemetryPath = telemetry;
    sim::Platform tmpl(sim::XGene2Params{}, sim::ChipCorner::TTT, 1);
    FleetExecutor executor(&tmpl);
    return executor.run(config);
}

/** FleetReport::serialize, timed. */
std::string
serializeTimed(const FleetReport &fleet, double &ms)
{
    const auto begin = SteadyClock::now();
    std::string bytes = fleet.serialize();
    ms = secondsSince(begin) * 1e3;
    return bytes;
}

class FleetSweep : public Workload
{
  public:
    FleetSweep(const Options &options, Record &record)
        : options_(options), record_(record),
          path_(options.workdir + "/fleet_sweep")
    {
        executorWorkers = options.workers;
    }

    void setup() override
    {
        // The warm-up iteration fixes the reference every later
        // iteration must reproduce; at the default seed it must also
        // reproduce the pinned hash.
        const Iteration warm = iterate(false);
        ++setupAttempted;
        setupFailed += warm.ok ? 0 : 1;
    }

    Iteration iterate(bool traced) override
    {
        const std::string cache = path_ + ".cache";
        removeFile(cache);
        const FleetReport fleet =
            runFleet(options_, options_.workers, path_ + ".journal", cache,
                     traced ? path_ + ".telemetry.jsonl" : "");
        double serialize_ms = 0.0;
        const std::string bytes = serializeTimed(fleet, serialize_ms);
        const std::string hash = hex(util::hashSeed(bytes));
        if (traced) {
            record_.sample("core.report.serialize_ms", serialize_ms);
            record_.sample("core.report.bytes",
                           static_cast<double>(bytes.size()));
        }

        const FleetConfig config = fleetConfig(options_, options_.workers);
        bool ok = record_.check("fleet_sweep.complete", fleet.complete,
                                "the fleet report is marked incomplete");
        if (reference_.empty()) {
            reference_ = hash;
            record_.text("fleet_sweep.report_hash", hash);
            record_.value("fidelity.vmin_err_mv",
                          vminErrorMv(fleet, config.framework.workloads));
        }
        ok &= record_.check("fleet_sweep.hash_matches_first",
                            hash == reference_,
                            "report hash " + hash +
                                " differs from the first iteration's " +
                                reference_);
        if (!options_.expectFleetHash.empty())
            ok &= record_.check(
                "fleet_sweep.hash_matches_pinned",
                hash == options_.expectFleetHash,
                "report hash " + hash + " differs from the pinned " +
                    options_.expectFleetHash);
        return {plannedCells(config), ok};
    }

    void layerPasses() override { runSimPasses(options_, record_); }

  private:
    const Options &options_;
    Record &record_;
    std::string path_;
    std::string reference_;
};

class FleetRederive : public Workload
{
  public:
    FleetRederive(const Options &options, Record &record)
        : options_(options), record_(record),
          path_(options.workdir + "/fleet_rederive")
    {
        clients = options.workers;
    }

    void setup() override
    {
        // Warm the cache with one fresh sweep; its report bytes are
        // what every cache-served iteration must reproduce. Each
        // client reads its own copy of the warm cache.
        const std::string cache = path_ + ".cache";
        removeFile(cache);
        const FleetReport fresh = runFleet(
            options_, options_.workers, path_ + ".journal", cache, "");
        freshBytes_ = fresh.serialize();
        const std::string hash = hex(util::hashSeed(freshBytes_));
        record_.text("fleet_rederive.report_hash", hash);
        if (!options_.expectFleetHash.empty())
            record_.check("fleet_rederive.fresh_hash_matches_pinned",
                          hash == options_.expectFleetHash,
                          "fresh report hash " + hash +
                              " differs from the pinned " +
                              options_.expectFleetHash);
        for (int c = 0; c < clients; ++c)
            std::filesystem::copy_file(
                cache, clientPath(c, ".cache"),
                std::filesystem::copy_options::overwrite_existing);

        const Iteration warm = iterate(false);
        ++setupAttempted;
        setupFailed += warm.ok ? 0 : 1;
    }

    Iteration iterate(bool traced) override
    {
        std::vector<Rederived> outcomes(static_cast<size_t>(clients));
        runClients(clients, [&](int client) {
            outcomes[static_cast<size_t>(client)] =
                rederive(client, traced);
        });

        const double planned = plannedCells(fleetConfig(options_, 1));
        bool ok = true;
        for (const Rederived &r : outcomes) {
            if (traced) {
                record_.sample("core.report.serialize_ms", r.serializeMs);
                record_.sample("core.report.deserialize_ms",
                               r.deserializeMs);
                record_.sample("core.report.bytes",
                               static_cast<double>(r.bytes));
            }
            ok &= record_.check(
                "fleet_rederive.bytes_equal_fresh", r.bytesEqual,
                "cache-served report differs from the fresh report (hash " +
                    r.hash + ")");
            ok &= record_.check(
                "fleet_rederive.all_cells_cached",
                static_cast<double>(r.cacheHits) == planned,
                std::to_string(r.cacheHits) + " of " +
                    std::to_string(static_cast<uint64_t>(planned)) +
                    " cells came from the cache");
            ok &= record_.check(
                "fleet_rederive.deserialize_round_trip", r.roundTrip,
                "a chip report did not re-serialize to identical bytes "
                "after deserializeReport");
        }
        return {planned * clients, ok};
    }

    void layerPasses() override
    {
        runLedgerPass(clientPath(0, ".cache"),
                      path_ + ".ledger_pass.ledger", record_);
    }

  private:
    struct Rederived
    {
        bool bytesEqual = false;
        bool roundTrip = true;
        uint64_t cacheHits = 0;
        size_t bytes = 0;
        std::string hash;
        double serializeMs = 0.0;
        double deserializeMs = 0.0;
    };

    std::string clientPath(int client, const char *suffix) const
    {
        return path_ + "." + std::to_string(client) + suffix;
    }

    /** One client's rederive: a single-worker fleet run served from
     *  its cache copy, the fleet report serialized, and every chip
     *  report reloaded with deserializeReport. */
    Rederived rederive(int client, bool traced) const
    {
        const FleetReport fleet = runFleet(
            options_, 1, clientPath(client, ".journal"),
            clientPath(client, ".cache"),
            traced ? clientPath(client, ".telemetry.jsonl") : "");
        Rederived out;
        const std::string bytes = serializeTimed(fleet, out.serializeMs);
        out.bytes = bytes.size();
        out.bytesEqual = bytes == freshBytes_;
        if (!out.bytesEqual)
            out.hash = hex(util::hashSeed(bytes));
        out.cacheHits = cacheHits(fleet);
        for (const FleetChipReport &chip : fleet.chips) {
            const std::string text = serializeReport(chip.report);
            const auto begin = SteadyClock::now();
            const CharacterizationReport back = deserializeReport(text);
            out.deserializeMs += secondsSince(begin) * 1e3;
            out.roundTrip &= serializeReport(back) == text;
        }
        return out;
    }

    const Options &options_;
    Record &record_;
    std::string path_;
    std::string freshBytes_;
};

} // namespace

std::unique_ptr<Workload>
makeFleetSweep(const Options &options, Record &record)
{
    return std::make_unique<FleetSweep>(options, record);
}

std::unique_ptr<Workload>
makeFleetRederive(const Options &options, Record &record)
{
    return std::make_unique<FleetRederive>(options, record);
}

} // namespace perfbench
