/**
 * @file
 * Benchmark harness entry point: set up one workload several times
 * (timed), then run its iterations until the measured time is used,
 * and print every raw sample as one JSON line on stdout.
 *
 * Untraced runs time iterations with the telemetry sink off. Traced
 * runs alternate untraced and traced iterations (the throughput
 * difference prices the tracing), read the telemetry registry after
 * each traced iteration, and finish with the workload's layer passes.
 */

#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sstream>

#include "common.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace
{

/** Timed set-up repetitions per run; setup_s is their median, so one
 *  set-up slowed by the host cannot move it. */
constexpr int kSetups = 3;

/**
 * Return memory freed by the set-ups to the system and restart the
 * process's peak-RSS count from the current resident set, so the peak
 * read after the loop is the iterations' own (set-up state they keep
 * using included, set-up scratch excluded).
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear)
        vmargin::util::fatalError(
            "perfbench_harness: cannot reset the peak RSS through "
            "/proc/self/clear_refs");
}

/** Peak resident set (VmHWM) since the last resetPeakRss, in KiB. */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        std::istringstream fields(line);
        std::string key;
        double kb = 0.0;
        if (fields >> key >> kb && key == "VmHWM:")
            return kb;
    }
    vmargin::util::fatalError(
        "perfbench_harness: no VmHWM line in /proc/self/status");
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, Record &record)
{
    if (options.workload == "fleet_sweep")
        return makeFleetSweep(options, record);
    if (options.workload == "fleet_rederive")
        return makeFleetRederive(options, record);
    if (options.workload == "predict_rfe")
        return makePredictRfe(options, record);
    if (options.workload == "governor_soak")
        return makeGovernorSoak(options, record);
    vmargin::util::fatalError("perfbench_harness: unknown workload '" +
                              options.workload + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    Record record;
    int attempted = 0;
    int failed = 0;

    std::unique_ptr<Workload> workload;
    for (int s = 0; s < kSetups; ++s) {
        const auto begin = SteadyClock::now();
        workload = makeWorkload(options, record);
        workload->setup();
        record.sample("setup_s", secondsSince(begin));
        attempted += workload->setupAttempted;
        failed += workload->setupFailed;
    }

    resetPeakRss();
    const auto start = SteadyClock::now();
    int untraced = 0;
    int traced = 0;
    for (;;) {
        const bool measure_traced = options.trace && traced < untraced;
        if (measure_traced)
            resetTelemetry();
        const auto begin = SteadyClock::now();
        const Iteration it = workload->iterate(measure_traced);
        const double seconds = secondsSince(begin);
        const std::string prefix = measure_traced ? "traced" : "untraced";
        record.sample(prefix + ".iter_s", seconds);
        record.sample(prefix + ".iter_items", it.items);
        if (measure_traced) {
            recordTelemetry(record, workload->executorWorkers,
                            workload->clients);
            ++traced;
        } else {
            ++untraced;
        }
        ++attempted;
        failed += it.ok ? 0 : 1;

        const int minimum = 2;
        const bool enough = options.trace
                                ? untraced >= minimum && traced >= minimum
                                : untraced >= minimum;
        if (enough && secondsSince(start) >= options.seconds)
            break;
    }
    record.value("peak_rss_kb", peakRssKb());
    if (options.trace)
        workload->layerPasses();

    record.value("attempted", attempted);
    record.value("failed", failed);
    record.value("workers", options.workers);
    record.text("build_type", PERFBENCH_BUILD_TYPE);
    record.text("compiler", PERFBENCH_COMPILER);

    std::cout << record.json() << std::endl;
    return 0;
}
