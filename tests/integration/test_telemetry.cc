/**
 * @file
 * The telemetry plane's out-of-band contract, end to end:
 *
 *  - enabling a telemetry sink must not move a single byte of the
 *    serialized campaign or fleet report (under fault injection, at
 *    several worker counts);
 *  - the exact-class counter section must come out byte-identical
 *    for workers {1, 2, 8} — and, for a fleet, for any chip
 *    enumeration order — the telemetry side of the determinism
 *    contract the report hashes assert;
 *  - the JSONL artifact itself must exist, grow one line per flush,
 *    and carry the metric keys CI and the benchmark harness read,
 *    from both the single-chip and the fleet entry point.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/executor.hh"
#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.managementHang = 0.002;
    plan.staleRead = 0.05;
    plan.seed = 99;
    return plan;
}

FrameworkConfig
sweepConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

/** One faulted sweep; returns the serialized report and, via
 *  @p counters_out, the exact-counter JSON it accumulated. */
std::string
sweep(int workers, const std::string &telemetry_path,
      std::string *counters_out = nullptr)
{
    obs::Registry::global().reset();
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           7);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = sweepConfig();
    config.workers = workers;
    config.telemetryPath = telemetry_path;
    const auto report = framework.characterize(config);
    if (counters_out)
        *counters_out = obs::Registry::global().countersJson();
    return serializeReport(report);
}

/** One faulted fleet sweep over @p chip_specs (any order); returns
 *  the serialized fleet report and, via @p counters_out, the
 *  exact-counter JSON it accumulated. */
std::string
fleetSweep(const std::vector<std::string> &chip_specs, int workers,
           const std::string &telemetry_path,
           std::string *counters_out = nullptr)
{
    obs::Registry::global().reset();
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    platform.installFaultPlan(hostilePlan());
    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework = sweepConfig();
    config.framework.workers = workers;
    config.framework.telemetryPath = telemetry_path;
    FleetExecutor executor(&platform);
    const std::string bytes = executor.run(config).serialize();
    if (counters_out)
        *counters_out = obs::Registry::global().countersJson();
    return bytes;
}

std::vector<std::string>
linesOf(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(Telemetry, SinkDoesNotPerturbTheReport)
{
    const std::string path = "/tmp/vmargin_telemetry_onoff.jsonl";
    std::remove(path.c_str());
    for (const int workers : {1, 2, 8}) {
        const std::string off = sweep(workers, "");
        const std::string on = sweep(workers, path);
        EXPECT_EQ(on, off)
            << "telemetry at " << workers
            << " workers moved report bytes — it must be strictly "
               "out-of-band";
    }
    std::remove(path.c_str());
}

TEST(Telemetry, ExactCountersIdenticalAcrossWorkerCounts)
{
    std::string one, two, eight;
    const std::string report_one = sweep(1, "", &one);
    const std::string report_two = sweep(2, "", &two);
    const std::string report_eight = sweep(8, "", &eight);
    // Guard: the runs themselves must agree before the counters can.
    ASSERT_EQ(report_two, report_one);
    ASSERT_EQ(report_eight, report_one);
    EXPECT_EQ(two, one)
        << "exact counters must not depend on the worker count";
    EXPECT_EQ(eight, one)
        << "exact counters must not depend on the worker count";
    EXPECT_NE(one.find("\"executor.cells_planned\":8"),
              std::string::npos)
        << one;
}

/** True when the JSONL line books counter @p key. */
bool
hasCounter(const std::string &line, const std::string &key)
{
    return line.find("\"" + key + "\":") != std::string::npos &&
           line.find("\"" + key + "\":{") == std::string::npos;
}

/** True when the JSONL line books span @p key. */
bool
hasSpan(const std::string &line, const std::string &key)
{
    return line.find("\"" + key + "\":{\"count\":") !=
           std::string::npos;
}

TEST(Telemetry, JsonlArtifactCarriesTheGatedKeys)
{
    const std::string path = "/tmp/vmargin_telemetry_keys.jsonl";
    std::remove(path.c_str());
    (void)sweep(4, path);
    const auto lines = linesOf(path);
    ASSERT_GE(lines.size(), 2u)
        << "expected at least one phase flush plus the final drain";
    const std::string &last = lines.back();
    EXPECT_NE(last.find("\"schema\":\"vmargin-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(last.find("\"executor.cells_planned\":8"),
              std::string::npos);
    EXPECT_NE(last.find("\"executor.cells_fresh\":8"),
              std::string::npos);
    // The keys CI's telemetry gate reads from a single-chip sweep.
    for (const char *key : {"executor.cells_planned",
                            "executor.cache_hits"})
        EXPECT_TRUE(hasCounter(last, key)) << key << " in " << last;
    for (const char *key :
         {"executor.plan", "executor.execute", "executor.merge"})
        EXPECT_TRUE(hasSpan(last, key)) << key << " in " << last;
    EXPECT_NE(last.find("threadpool.tasks"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Telemetry, FleetExactCountersIdenticalAcrossWorkersAndChipOrder)
{
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};
    const std::vector<std::string> shuffled = {"TSS:3", "TTT",
                                               "TFF:2"};
    std::string one, two, eight, reordered;
    const std::string report_one = fleetSweep(chips, 1, "", &one);
    const std::string report_two = fleetSweep(chips, 2, "", &two);
    const std::string report_eight = fleetSweep(chips, 8, "", &eight);
    const std::string report_reordered =
        fleetSweep(shuffled, 4, "", &reordered);
    // Guard: the runs themselves must agree before the counters can.
    ASSERT_EQ(report_two, report_one);
    ASSERT_EQ(report_eight, report_one);
    ASSERT_EQ(report_reordered, report_one);
    EXPECT_EQ(two, one)
        << "fleet exact counters must not depend on the worker count";
    EXPECT_EQ(eight, one)
        << "fleet exact counters must not depend on the worker count";
    EXPECT_EQ(reordered, one)
        << "fleet exact counters must not depend on the chip order";
    EXPECT_NE(one.find("\"fleet.cells_measured\":24"),
              std::string::npos)
        << one;
}

TEST(Telemetry, FleetReportUnmovedBySink)
{
    const std::string path = "/tmp/vmargin_telemetry_fleet.jsonl";
    std::remove(path.c_str());

    const std::string off = fleetSweep({"TTT", "TFF:2"}, 4, "");
    const std::string on = fleetSweep({"TTT", "TFF:2"}, 4, path);
    EXPECT_EQ(on, off);
    const auto lines = linesOf(path);
    ASSERT_GE(lines.size(), 2u)
        << "expected at least one phase flush plus the final drain";
    const std::string &last = lines.back();
    EXPECT_NE(last.find("\"fleet.cells_measured\":16"),
              std::string::npos)
        << last;
    // The keys CI's fleet telemetry gate and the benchmark harness
    // read from a fleet sweep.
    for (const char *key : {"fleet.chips", "fleet.cells_planned",
                            "fleet.cells_measured"})
        EXPECT_TRUE(hasCounter(last, key)) << key << " in " << last;
    for (const char *key : {"fleet.merge_barrier", "fleet.chip_merge"})
        EXPECT_TRUE(hasSpan(last, key)) << key << " in " << last;
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
