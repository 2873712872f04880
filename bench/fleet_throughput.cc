/**
 * @file
 * Fleet executor throughput: cells/second at 1, 2 and 4 chips over
 * the same 8-cell-per-chip sweep, each fleet size swept at several
 * worker counts, plus the determinism check the fleet plane is built
 * on — the serialized fleet report must hash identically for every
 * worker count AND for a shuffled chip enumeration order (the full
 * byte comparison lives in tests/integration/test_fleet_executor).
 *
 * Each (chips, workers) series repeats its sweep at least 7 times
 * and until 0.3 s of work accumulated, and reports the median
 * repetition; the report hash and exact counters are checked on
 * every repetition.
 *
 * Emits a JSON record per (chips, workers) series:
 *
 *   {"bench":"fleet_throughput","series":[...],
 *    "fleet_identical":true}
 *
 * With `--json <path>` the record is additionally written to @p path
 * (for CI artifact upload).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/fleet.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/threadpool.hh"

using namespace vmargin;

namespace
{

FrameworkConfig
eightCellConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("mcf/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 3;
    config.maxEpochs = 10;
    config.startVoltage = 930;
    config.endVoltage = 845;
    return config;
}

std::vector<std::string>
fleetOf(int chips)
{
    // 1 chip = the paper's typical part; 3 = its TTT/TFF/TSS trio;
    // 4 adds a second typical part, the shape a small rack has.
    const std::vector<std::string> pool = {"TTT", "TFF:2", "TSS:3",
                                           "TTT:4"};
    return std::vector<std::string>(pool.begin(),
                                    pool.begin() + chips);
}

/** One timed fleet sweep: wall seconds and the report hash. */
struct Sweep
{
    double seconds = 0.0;
    Seed reportHash = 0;
};

Sweep
sweepWith(int workers, const std::vector<std::string> &chip_specs)
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework = eightCellConfig();
    config.framework.workers = workers;
    FleetExecutor executor(&platform);

    const auto begin = std::chrono::steady_clock::now();
    const FleetReport report = executor.run(config);
    const auto end = std::chrono::steady_clock::now();

    Sweep sweep;
    sweep.seconds =
        std::chrono::duration<double>(end - begin).count();
    sweep.reportHash = util::hashSeed(report.serialize());
    return sweep;
}

/** One (chips, workers) pair's repeated sweeps, judged on the
 *  median repetition. */
struct Series
{
    int chips = 0;
    int workers = 0;
    bench::RepeatedTiming timing;
    double cellsPerSec = 0.0;
    Seed reportHash = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string telemetry_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--telemetry" && i + 1 < argc) {
            telemetry_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json <path>] [--telemetry <path>]\n";
            return 2;
        }
    }

    util::printBanner(std::cout,
                      "fleet executor throughput "
                      "(8 cells per chip)");

    const int hardware = util::ThreadPool::defaultWorkerCount();
    const std::vector<int> fleet_sizes = {1, 2, 4};
    const std::vector<int> worker_counts = {1, 4, 8};

    std::unique_ptr<obs::TelemetrySink> sink;
    if (!telemetry_path.empty())
        sink = std::make_unique<obs::TelemetrySink>(telemetry_path);

    const FrameworkConfig per_chip = eightCellConfig();
    const double cells_per_chip = static_cast<double>(
        per_chip.workloads.size() * per_chip.cores.size());
    std::vector<Series> series;
    std::string counters_json;
    bool ok = true;
    for (const int chips : fleet_sizes) {
        Seed first_hash = 0;
        std::string first_counters;
        for (const int workers : worker_counts) {
            std::cerr << "sweeping " << chips << " chip"
                      << (chips == 1 ? "" : "s") << " with "
                      << workers << " worker"
                      << (workers == 1 ? "" : "s") << "...\n";
            Series s;
            s.chips = chips;
            s.workers = workers;
            bool hash_differs = false;
            bool counters_differ = false;
            s.timing = bench::repeatTimed([&] {
                // Zero the registry per repetition: exact counters
                // must come out identical for every repetition and
                // worker count of a fleet size.
                obs::Registry::global().reset();
                const Sweep sweep = sweepWith(workers, fleetOf(chips));
                const std::string counters =
                    obs::Registry::global().countersJson();
                if (first_hash == 0) {
                    first_hash = sweep.reportHash;
                    first_counters = counters;
                    counters_json = counters; // largest fleet wins
                }
                if (s.reportHash == 0)
                    s.reportHash = sweep.reportHash;
                hash_differs =
                    hash_differs || sweep.reportHash != first_hash;
                counters_differ =
                    counters_differ || counters != first_counters;
                return sweep.seconds;
            });
            s.cellsPerSec = static_cast<double>(chips) *
                            cells_per_chip / s.timing.medianSeconds;
            if (sink)
                sink->flush();
            if (hash_differs) {
                std::cerr << "FAIL: a " << chips << "-chip report at "
                          << workers
                          << " workers differs from the first "
                             "worker count (hash mismatch)\n";
                ok = false;
            } else if (counters_differ) {
                std::cerr << "FAIL: " << chips
                          << "-chip exact telemetry counters at "
                          << workers
                          << " workers differ from the first "
                             "worker count\n";
                ok = false;
            }
            series.push_back(s);
        }

        // Shuffled chip enumeration order must hash identically.
        std::vector<std::string> shuffled = fleetOf(chips);
        std::reverse(shuffled.begin(), shuffled.end());
        if (sweepWith(4, shuffled).reportHash != first_hash) {
            std::cerr << "FAIL: " << chips
                      << "-chip report depends on the chip "
                         "enumeration order (hash mismatch)\n";
            ok = false;
        }
    }

    for (const auto &s : series)
        std::cout << util::padLeft(std::to_string(s.chips), 2)
                  << " chips x "
                  << util::padLeft(std::to_string(s.workers), 2)
                  << " workers: "
                  << util::padLeft(
                         util::formatDouble(s.cellsPerSec, 2), 8)
                  << " cells/s  (median "
                  << util::formatDouble(s.timing.medianSeconds, 4)
                  << " s of " << s.timing.repetitions << ", IQR "
                  << util::formatDouble(s.timing.iqrSeconds, 4)
                  << " s)\n";

    std::ostringstream json;
    json << "{\"bench\":\"fleet_throughput\",\"cells_per_chip\":8,"
         << "\"hardware_threads\":" << hardware << ",\"series\":[";
    for (size_t i = 0; i < series.size(); ++i) {
        const auto &s = series[i];
        json << (i ? "," : "") << "{\"chips\":" << s.chips
             << ",\"workers\":" << s.workers
             << ",\"repetitions\":" << s.timing.repetitions
             << ",\"seconds\":"
             << util::formatDouble(s.timing.medianSeconds, 4)
             << ",\"seconds_min\":"
             << util::formatDouble(s.timing.minSeconds, 4)
             << ",\"seconds_iqr\":"
             << util::formatDouble(s.timing.iqrSeconds, 4)
             << ",\"cells_per_sec\":"
             << util::formatDouble(s.cellsPerSec, 2)
             << ",\"report_hash\":\"" << std::hex << s.reportHash
             << std::dec << "\"}";
    }
    json << "],\"telemetry\":"
         << (counters_json.empty() ? "{}" : counters_json)
         << ",\"fleet_identical\":" << (ok ? "true" : "false")
         << "}";

    std::cout << json.str() << "\n";
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write JSON to '" << json_path
                      << "'\n";
            return 1;
        }
        out << json.str() << "\n";
    }

    return ok ? 0 : 1;
}
