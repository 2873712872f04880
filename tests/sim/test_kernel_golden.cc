/**
 * @file
 * Draw-order golden tests for the per-run simulation kernel.
 *
 * The batched kernel refactor (scratch-buffer RNG draws, batch cache
 * walks) is only legal because every RNG stream keeps its exact draw
 * sequence. These tests pin that contract to literal hashes computed
 * on the pre-batching kernel: any accidental reorder of
 * `fault_rng`/`AddressStream` draws — or any change to the xoshiro
 * streams themselves — fails loudly here instead of silently shifting
 * every failure threshold in the characterization results.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/cache_hierarchy.hh"
#include "sim/core.hh"
#include "sim/platform.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin::sim
{
namespace
{

/** FNV-1a over arbitrary words; chained across calls. */
uint64_t
fnv(uint64_t hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (byte * 8)) & 0xFF;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

uint64_t
fnvDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv(hash, bits);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Hash every observable field of a run result. */
uint64_t
hashRun(uint64_t hash, const RunResult &r)
{
    hash = fnv(hash, r.systemCrashed);
    hash = fnv(hash, r.applicationCrashed);
    hash = fnv(hash, r.completed);
    hash = fnv(hash, r.outputMatches);
    hash = fnv(hash, static_cast<uint64_t>(r.exitCode));
    hash = fnv(hash, r.sdcEvents);
    hash = fnv(hash, r.correctedErrors);
    hash = fnv(hash, r.uncorrectedErrors);
    hash = fnv(hash, r.epochsExecuted);
    hash = fnvDouble(hash, r.simulatedSeconds);
    hash = fnvDouble(hash, r.avgIpc);
    hash = fnvDouble(hash, r.activityFactor);
    for (const uint64_t counter : r.counters)
        hash = fnv(hash, counter);
    for (const auto &e : r.errors) {
        hash = fnv(hash, static_cast<uint64_t>(e.kind));
        hash = fnv(hash, static_cast<uint64_t>(e.site));
        hash = fnv(hash, e.core);
        hash = fnv(hash, e.epoch);
        hash = fnv(hash, e.count);
    }
    return hash;
}

/** The kernel's exact per-run streams, reproduced from their seeds. */
TEST(KernelGolden, FaultRngAndAddressStreamSequences)
{
    const Seed seed = 0x5EEDULL;

    util::Rng fault_rng(util::mixSeed(seed, 0xFA17ULL));
    uint64_t hash = kFnvBasis;
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, fault_rng.next());

    util::Rng addr_seed_rng(util::mixSeed(seed, 0xADD2ULL));
    wl::AddressStream data_stream(1 << 20, 0.7, 0.5,
                                  addr_seed_rng.next());
    wl::AddressStream instr_stream(1 << 16, 0.95, 0.6,
                                   addr_seed_rng.next());
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, data_stream.next());
    for (int i = 0; i < 256; ++i)
        hash = fnv(hash, instr_stream.next());

    EXPECT_EQ(hash, 0x30ef81558a845dcaULL)
        << "raw RNG/address stream sequences changed";
}

/**
 * Every RunResult field except the counters must match between a
 * profiling (@p on) and a measurement (@p off) run of the same
 * config; the measurement run's counters must be all zero.
 */
void
expectSameOutcome(const RunResult &on, const RunResult &off)
{
    EXPECT_EQ(off.systemCrashed, on.systemCrashed);
    EXPECT_EQ(off.applicationCrashed, on.applicationCrashed);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.outputMatches, on.outputMatches);
    EXPECT_EQ(off.exitCode, on.exitCode);
    EXPECT_EQ(off.sdcEvents, on.sdcEvents);
    EXPECT_EQ(off.correctedErrors, on.correctedErrors);
    EXPECT_EQ(off.uncorrectedErrors, on.uncorrectedErrors);
    EXPECT_EQ(off.epochsExecuted, on.epochsExecuted);
    EXPECT_EQ(off.voltage, on.voltage);
    EXPECT_EQ(off.frequency, on.frequency);
    EXPECT_EQ(off.simulatedSeconds, on.simulatedSeconds);
    EXPECT_EQ(off.avgIpc, on.avgIpc);
    EXPECT_EQ(off.activityFactor, on.activityFactor);
    ASSERT_EQ(off.errors.size(), on.errors.size());
    for (size_t i = 0; i < on.errors.size(); ++i) {
        EXPECT_EQ(off.errors[i].kind, on.errors[i].kind);
        EXPECT_EQ(off.errors[i].site, on.errors[i].site);
        EXPECT_EQ(off.errors[i].core, on.errors[i].core);
        EXPECT_EQ(off.errors[i].epoch, on.errors[i].epoch);
        EXPECT_EQ(off.errors[i].count, on.errors[i].count);
    }
    EXPECT_EQ(off.counters, PmuSnapshot{})
        << "a measurement run must leave every counter zero";
}

/**
 * A representative run per effect regime, hashed end to end: every
 * counter, error record and observable. Reordering any draw inside
 * Core::run (the batching refactor's one forbidden failure mode)
 * changes this hash. Each run is repeated as a measurement run
 * (Core::measure), which must reproduce everything but the counters
 * — so the draws that stand in for the skipped write-intent draws
 * are pinned too.
 */
TEST(KernelGolden, RunResultAcrossVoltageGrid)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Core core(0, params, &caches);

    OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;

    uint64_t hash = kFnvBasis;
    int abnormal_runs = 0;
    const auto runBoth = [&](const char *workload,
                             ExecutionConfig config) {
        const auto &profile = wl::findWorkload(workload);
        caches.invalidateAll();
        const RunResult on = core.run(profile, onsets, config);
        hash = hashRun(hash, on);
        caches.invalidateAll();
        const RunResult off = core.measure(profile, onsets, config);
        SCOPED_TRACE(testing::Message()
                     << workload << " at " << config.voltage << " mV");
        expectSameOutcome(on, off);
        abnormal_runs += on.abnormal() ? 1 : 0;
    };

    // Above every onset; straddling CE/SDC; inside UE/AC; deep in
    // the crash region — all four fault regimes contribute.
    for (const MilliVolt v : {980, 910, 890, 875, 860}) {
        ExecutionConfig config;
        config.voltage = v;
        config.seed = util::mixSeed(0xC0FFEEULL,
                                    static_cast<uint64_t>(v));
        config.maxEpochs = 12;
        runBoth("bwaves/ref", config);
    }
    // di/dt droop exercises the epoch-swing path too.
    {
        ExecutionConfig config;
        config.voltage = 895;
        config.seed = 0xD1D7ULL;
        config.maxEpochs = 12;
        config.droopSensitivityMv = 25.0;
        runBoth("mcf/ref", config);
    }

    EXPECT_EQ(hash, 0x80175df6fa2a45b3ULL)
        << "kernel draw order or outcome semantics changed";
    // The comparison only bites if fault draws happened after the
    // skipped cache walk.
    EXPECT_GE(abnormal_runs, 3);
}

/**
 * Droop-driven runs: the supply sits above every threshold a run can
 * draw, so no effect can fire without droop, and epoch 0 has none
 * (there is no previous epoch to swing from). Only an epoch-to-epoch
 * IPC swing raises a threshold to the supply, so each of these runs
 * makes its first fault draw after at least one fault-free epoch,
 * with write-intent draws a measurement run still owes fault_rng.
 * Core::measure must make them before that draw to reproduce
 * Core::run.
 */
TEST(KernelGolden, DroopDrivenMeasurementMatchesProfiling)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Core core(0, params, &caches);

    OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;
    // A Box-Muller deviate stays below 8.6 sigma (its radius is at
    // most sqrt(-2 ln 2^-53)), and the widest threshold jitter is
    // 4.5 mV at the 43 C default: no threshold is drawn 39 mV or
    // more above its onset.
    const MilliVolt above_every_threshold = onsets.highest() + 40;

    int late_fault_runs = 0;
    for (const char *workload : {"mcf/ref", "bwaves/ref"}) {
        const auto &profile = wl::findWorkload(workload);
        for (const MilliVolt v :
             {above_every_threshold, above_every_threshold + 15}) {
            for (const double sensitivity : {800.0, 1500.0}) {
                for (uint64_t i = 0; i < 8; ++i) {
                    ExecutionConfig config;
                    config.voltage = v;
                    config.seed = util::mixSeed(0xD200FULL, i);
                    config.maxEpochs = 20;
                    config.droopSensitivityMv = sensitivity;
                    SCOPED_TRACE(testing::Message()
                                 << workload << " at " << v
                                 << " mV, droop " << sensitivity
                                 << " mV, seed " << i);
                    caches.invalidateAll();
                    const RunResult on =
                        core.run(profile, onsets, config);
                    caches.invalidateAll();
                    const RunResult off =
                        core.measure(profile, onsets, config);
                    expectSameOutcome(on, off);
                    if (!on.errors.empty()) {
                        EXPECT_GE(on.errors.front().epoch, 1u)
                            << "epoch 0 has no droop and cannot fault";
                    }
                    if (on.abnormal() || on.sdcEvents > 0)
                        ++late_fault_runs;
                }
            }
        }
    }
    // The comparison only bites if droop made fault draws happen.
    EXPECT_GE(late_fault_runs, 8);
}

/**
 * The governor daemon's call shape: measurement runs of at most 8
 * epochs through Platform::runWorkload on a long-lived platform
 * settled before each run, with a round seed and its 0x5AFE
 * re-execution seed. Each measurement must see exactly what a
 * profiling run (Platform::profileWorkload) of the same seed from
 * the same settled state sees, bar the counters — once above every
 * onset and once inside the fault regimes.
 */
TEST(KernelGolden, DaemonShapeMeasurementMatchesProfiling)
{
    Platform platform(XGene2Params{}, ChipCorner::TTT, 1);
    const CoreId core = 0;
    const auto &workload = wl::findWorkload("bwaves/ref");
    const OnsetSet onsets = platform.chip().margins().onsets(
        core, workload, SpeedClass::Full);
    const MilliVolt safe = 980;
    const MilliVolt faulty = 880;
    ASSERT_GT(safe, onsets.highest());
    ASSERT_LE(faulty, onsets.ce);

    // The daemon settles its platform every round; a crashed run
    // leaves it down, which the watchdog's power cycle resets.
    const auto settleAt = [&platform](MilliVolt v) {
        if (platform.responsive())
            platform.settleForRound();
        else
            platform.powerCycle();
        EXPECT_TRUE(platform.chip().pmdDomain().set(v));
    };

    ExecutionConfig exec;
    exec.maxEpochs = 8;
    const Seed round_seed =
        util::mixSeed(util::mixSeed(0x5EEDULL, 3),
                      static_cast<uint64_t>(core));
    int abnormal_runs = 0;
    for (const MilliVolt v : {safe, faulty}) {
        for (const Seed seed :
             {round_seed, util::mixSeed(round_seed, 0x5AFEULL)}) {
            SCOPED_TRACE(testing::Message()
                         << v << " mV, seed " << seed);
            settleAt(v);
            const RunResult profiled =
                platform.profileWorkload(core, workload, seed, exec);
            settleAt(v);
            const RunResult measured =
                platform.runWorkload(core, workload, seed, exec);
            expectSameOutcome(profiled, measured);
            EXPECT_NE(profiled.counters, PmuSnapshot{})
                << "a profiling run must fill the counters";
            if (v == safe) {
                EXPECT_FALSE(measured.abnormal());
            }
            abnormal_runs += measured.abnormal() ? 1 : 0;
        }
    }
    // The comparison only bites if the fault regime produced effects.
    EXPECT_GE(abnormal_runs, 1);
}

} // namespace
} // namespace vmargin::sim
