/**
 * @file
 * Shared pieces of the benchmark harness: the options the Python
 * front end passes in, the raw-sample record the harness prints, the
 * workload interface, and the telemetry readers every traced
 * iteration uses.
 *
 * The harness only measures. It prints raw samples (setup times,
 * per-iteration times, per-layer samples and check outcomes) as one
 * JSON line; perfbench/run.py turns them into the reported medians
 * and percentiles.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ledger.hh"

namespace perfbench
{

using SteadyClock = std::chrono::steady_clock;

/** Seconds elapsed since @p begin. */
double secondsSince(SteadyClock::time_point begin);

/** Inputs generated from the workload seed, plus run settings. */
struct Options
{
    std::string workload;
    std::string workdir;     ///< working files (journals, caches)
    double seconds = 10.0;   ///< measured time per run
    bool trace = false;
    int workers = 1;

    /** fleet_sweep / fleet_rederive: the TTT, TFF, TSS trio. */
    std::vector<vmargin::ChipRef> fleetChips;
    /** predict_rfe / governor_soak: the characterized chip. */
    vmargin::ChipRef chip;
    /** Seed material for run seeds and pass sampling. */
    uint64_t runSeed = 0;
    /** Seed of the hostile fault plan (governor_soak). */
    uint64_t faultSeed = 0;
    /** Pinned fleet report hash (hex); empty = not pinned for
     *  this seed. */
    std::string expectFleetHash;
    /** Pinned kernel-pass result hash (hex); empty = not pinned
     *  for this seed. */
    std::string expectKernelHash;
};

/** Parse argv; fatal, naming the bad value, on malformed input. */
Options parseOptions(int argc, char **argv);

/**
 * Raw measurements of one harness run. Samples are appended in
 * measurement order; values are single numbers; checks record each
 * output check with a reason on failure.
 */
class Record
{
  public:
    void sample(const std::string &name, double value);
    void value(const std::string &name, double value);
    void text(const std::string &name, const std::string &value);
    /** Record one outcome of an output check; returns @p ok.
     *  Failures are also reported on stderr at once. */
    bool check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** One JSON object holding everything recorded. */
    std::string json() const;

  private:
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
    std::map<std::string, std::string> texts_;
    /** Outcomes per check name; the first failure's detail kept. */
    struct Check
    {
        int passed = 0;
        int failed = 0;
        std::string detail;
    };
    std::map<std::string, Check> checks_;
};

/** Outcome of one workload iteration. */
struct Iteration
{
    double items = 0.0; ///< work units delivered (cells, fits, rounds)
    bool ok = true;     ///< every output check passed
};

/**
 * One benchmark workload. setup() builds everything the timed loop
 * needs, including a warm-up iteration that fixes the reference
 * outputs later iterations are checked against; it is timed and
 * repeated on a fresh object. iterate() is the timed unit of work.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;

    /**
     * One iteration. With @p traced set the workload turns on the
     * telemetry sink and records its per-layer samples into the
     * record it was built with.
     */
    virtual Iteration iterate(bool traced) = 0;

    /** Benchmark-driven layer passes (traced runs only). */
    virtual void layerPasses() {}

    /** Iterations attempted and failed inside setup() (warm-ups). */
    int setupAttempted = 0;
    int setupFailed = 0;

    /** Concurrent closed-loop clients one iteration runs. */
    int clients = 1;
    /** Executor worker threads per client (for the busy ratio). */
    int executorWorkers = 1;
};

std::unique_ptr<Workload> makeFleetSweep(const Options &options,
                                         Record &record);
std::unique_ptr<Workload> makeFleetRederive(const Options &options,
                                            Record &record);
std::unique_ptr<Workload> makePredictRfe(const Options &options,
                                         Record &record);
std::unique_ptr<Workload> makeGovernorSoak(const Options &options,
                                           Record &record);

/** Kernel, cache-model and campaign passes (fleet_sweep). */
void runSimPasses(const Options &options, Record &record);

/** Ledger pass on a warm cell-cache file (fleet_rederive). */
void runLedgerPass(const std::string &cache_path,
                   const std::string &fresh_path, Record &record);

/** 16-digit lower-case hex of a hash. */
std::string hex(uint64_t value);

/** Zero the process-wide telemetry registry before a traced
 *  iteration. */
void resetTelemetry();

/**
 * Record the per-iteration telemetry samples every traced iteration
 * reports: executor and fleet spans, thread-pool, ledger, daemon and
 * supervisor counters, read from the registry the sink exports. The
 * registry sums over the iteration's @p clients; samples are per
 * client. @p executor_workers is each client's executor worker count
 * (for the busy ratio).
 */
void recordTelemetry(Record &record, int executor_workers, int clients);

/**
 * Run fn(client) for clients 0..n-1 on n threads at once and join
 * them all; an exception thrown by a client is rethrown after the
 * join.
 */
void runClients(int n, const std::function<void(int)> &fn);

/** Remove @p path if it exists. */
void removeFile(const std::string &path);

/** Size of @p path in bytes (0 when missing). */
uint64_t fileBytes(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
