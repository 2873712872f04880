/**
 * @file
 * Unit tests for the synthetic activity generator and the address
 * stream.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workloads/generator.hh"
#include "workloads/selftest.hh"
#include "workloads/spec.hh"

namespace vmargin::wl
{
namespace
{

TEST(ActivityGenerator, Deterministic)
{
    const auto profile = findWorkload("bwaves");
    ActivityGenerator a(profile, 42), b(profile, 42);
    for (uint32_t e = 0; e < 5; ++e) {
        const auto x = a.epoch(e);
        const auto y = b.epoch(e);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.loads, y.loads);
        EXPECT_EQ(x.branchMispredicts, y.branchMispredicts);
    }
}

TEST(ActivityGenerator, OrderIndependent)
{
    // The campaign replays runs; epoch k must not depend on whether
    // epochs 0..k-1 were generated.
    const auto profile = findWorkload("mcf");
    ActivityGenerator a(profile, 7), b(profile, 7);
    (void)a.epoch(0);
    (void)a.epoch(1);
    const auto direct = b.epoch(2);
    const auto sequential = a.epoch(2);
    EXPECT_EQ(direct.instructions, sequential.instructions);
    EXPECT_EQ(direct.cycles, sequential.cycles);
}

TEST(ActivityGenerator, TimingEqualsEpochInstructionsAndCycles)
{
    // A measurement run reads only timing(); it must see exactly the
    // counts a profiling run reads from epoch(), for every workload
    // the kernel can run.
    std::vector<WorkloadProfile> catalog = fullSuite();
    for (const auto &selftest : selfTestSuite())
        catalog.push_back(selftest);
    for (const auto &profile : catalog) {
        for (const Seed seed : {Seed{1}, Seed{0x5EED}, Seed{~0ULL}}) {
            SCOPED_TRACE(testing::Message()
                         << profile.id() << ", seed " << seed);
            const ActivityGenerator gen(profile, seed);
            for (uint32_t e = 0; e < profile.epochs; ++e) {
                const EpochActivity full = gen.epoch(e);
                const EpochActivity timing = gen.timing(e);
                EXPECT_EQ(timing.instructions, full.instructions)
                    << "epoch " << e;
                EXPECT_EQ(timing.cycles, full.cycles) << "epoch " << e;
            }
        }
    }
}

TEST(ActivityGenerator, SeedChangesActivity)
{
    const auto profile = findWorkload("bwaves");
    ActivityGenerator a(profile, 1), b(profile, 2);
    EXPECT_NE(a.epoch(0).cycles, b.epoch(0).cycles);
}

TEST(ActivityGenerator, CountsTrackProfileRates)
{
    const auto profile = findWorkload("namd");
    ActivityGenerator gen(profile, 3);
    double fpu_frac = 0.0, stall_frac = 0.0, ipc = 0.0;
    const int n = 20;
    for (int e = 0; e < n; ++e) {
        const auto act = gen.epoch(static_cast<uint32_t>(e));
        fpu_frac += static_cast<double>(act.fpuOps) /
                    static_cast<double>(act.instructions);
        stall_frac += static_cast<double>(act.dispatchStallCycles) /
                      static_cast<double>(act.cycles);
        ipc += act.ipc();
    }
    EXPECT_NEAR(fpu_frac / n, profile.mix.fpu, 0.02);
    EXPECT_NEAR(stall_frac / n, profile.dispatchStallFrac, 0.02);
    EXPECT_NEAR(ipc / n, profile.ipcNominal, 0.1);
}

TEST(ActivityGenerator, StallsNeverExceedCycles)
{
    for (const auto &profile :
         {findWorkload("mcf"), findWorkload("omnetpp")}) {
        ActivityGenerator gen(profile, 5);
        for (uint32_t e = 0; e < 10; ++e) {
            const auto act = gen.epoch(e);
            EXPECT_LE(act.dispatchStallCycles, act.cycles);
        }
    }
}

TEST(ActivityGenerator, DerivedEventsBounded)
{
    const auto profile = findWorkload("gobmk/nngs");
    ActivityGenerator gen(profile, 9);
    for (uint32_t e = 0; e < 10; ++e) {
        const auto act = gen.epoch(e);
        EXPECT_LE(act.branchMispredicts, act.branches);
        EXPECT_LE(act.btbMisses, act.branches);
        EXPECT_LT(act.exceptions, act.instructions / 100);
    }
}

TEST(AddressStream, StaysInWorkingSet)
{
    AddressStream stream(64 * 1024, 0.5, 0.5, 1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(stream.next(), 64u * 1024u);
}

TEST(AddressStream, SequentialWhenFullySpatial)
{
    AddressStream stream(1 << 20, 1.0, 0.0, 2);
    uint64_t prev = stream.next();
    for (int i = 0; i < 100; ++i) {
        const uint64_t cur = stream.next();
        EXPECT_EQ(cur, (prev + 8) % (1 << 20));
        prev = cur;
    }
}

TEST(AddressStream, RandomWhenNonSpatialCoversSet)
{
    AddressStream stream(1 << 16, 0.0, 0.0, 3);
    std::set<uint64_t> lines;
    for (int i = 0; i < 5000; ++i)
        lines.insert(stream.next() / 64);
    // Random jumps over 1024 lines: most lines get touched.
    EXPECT_GT(lines.size(), 600u);
}

TEST(AddressStream, TemporalLocalityConcentratesInHotSet)
{
    AddressStream stream(1 << 20, 0.0, 0.95, 4);
    int hot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hot += stream.next() < (1 << 20) / 10 ? 1 : 0;
    EXPECT_GT(hot, n * 8 / 10);
}

TEST(AddressStream, TinyWorkingSetClamped)
{
    // Below the 4 KiB floor the stream must still behave.
    AddressStream stream(16, 0.5, 0.5, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(stream.next(), 4096u);
}

} // namespace
} // namespace vmargin::wl
