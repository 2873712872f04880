/**
 * @file
 * Unit tests for the SPEC CPU2006-like suite composition (the
 * population the paper's prediction study uses: 26 benchmarks, 40
 * samples).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "workloads/spec.hh"

namespace vmargin::wl
{
namespace
{

TEST(Spec, HeadlineSuiteIsThePaperList)
{
    const auto suite = headlineSuite();
    ASSERT_EQ(suite.size(), 10u);
    const std::set<std::string> expected = {
        "bwaves", "cactusADM", "dealII", "gromacs", "leslie3d",
        "mcf",    "milc",      "namd",   "soplex",  "zeusmp"};
    std::set<std::string> names;
    for (const auto &p : suite)
        names.insert(p.name);
    EXPECT_EQ(names, expected);
}

TEST(Spec, FullSuiteHas40SamplesFrom26Benchmarks)
{
    const auto suite = fullSuite();
    EXPECT_EQ(suite.size(), 40u);
    std::set<std::string> names;
    for (const auto &p : suite)
        names.insert(p.name);
    EXPECT_EQ(names.size(), 26u);
}

TEST(Spec, AllProfilesValidate)
{
    for (const auto &p : fullSuite())
        p.validate(); // panics on failure
}

TEST(Spec, SampleIdsAreUnique)
{
    std::set<std::string> ids;
    for (const auto &p : fullSuite())
        EXPECT_TRUE(ids.insert(p.id()).second)
            << "duplicate sample " << p.id();
}

TEST(Spec, HeadlineIsSubsetOfFull)
{
    const auto full = fullSuite();
    for (const auto &h : headlineSuite()) {
        bool found = false;
        for (const auto &p : full)
            found = found || p.id() == h.id();
        EXPECT_TRUE(found) << h.id();
    }
}

TEST(Spec, FindWorkloadByNameAndId)
{
    EXPECT_EQ(findWorkload("bwaves").name, "bwaves");
    EXPECT_EQ(findWorkload("gcc/166").dataset, "166");
    EXPECT_EQ(findWorkload("gcc").name, "gcc");
}

/** The lookup's answer is @p want's catalog entry: same key, same
 *  calibrated values. */
void
expectSameProfile(const WorkloadProfile &got, const WorkloadProfile &want)
{
    EXPECT_EQ(got.id(), want.id());
    EXPECT_EQ(got.kind, want.kind) << want.id();
    EXPECT_EQ(got.mix.total(), want.mix.total()) << want.id();
    EXPECT_EQ(got.ipcNominal, want.ipcNominal) << want.id();
    EXPECT_EQ(got.workingSetKb, want.workingSetKb) << want.id();
    EXPECT_EQ(got.epochs, want.epochs) << want.id();
}

TEST(Spec, FindWorkloadEqualsTheFullSuiteEntry)
{
    const auto full = fullSuite();
    ASSERT_EQ(full.size(), 40u);
    for (const auto &p : full)
        expectSameProfile(findWorkload(p.id()), p);
    // A name-only lookup resolves to the first sample of that name.
    for (const auto &name : benchmarkNames()) {
        const auto first = std::find_if(
            full.begin(), full.end(),
            [&name](const WorkloadProfile &p) { return p.name == name; });
        ASSERT_NE(first, full.end()) << name;
        expectSameProfile(findWorkload(name), *first);
    }
    EXPECT_EQ(findWorkload("gcc").id(), "gcc/166");
}

TEST(Spec, FindWorkloadConcurrentFirstCallsShareOneCatalog)
{
    // Concurrent daemons may each make the process's first lookup;
    // every call, then and later, answers from one catalog.
    std::vector<const WorkloadProfile *> found(4, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < found.size(); ++t)
        threads.emplace_back(
            [&found, t] { found[t] = &findWorkload("milc/ref"); });
    for (auto &thread : threads)
        thread.join();
    for (const WorkloadProfile *p : found)
        EXPECT_EQ(p, found[0]);
    EXPECT_EQ(&findWorkload("milc/ref"), found[0]);
    EXPECT_EQ(found[0]->id(), "milc/ref");

    const auto once = fullSuite();
    const auto again = fullSuite();
    ASSERT_EQ(once.size(), again.size());
    for (size_t i = 0; i < once.size(); ++i)
        expectSameProfile(again[i], once[i]);
}

TEST(Spec, FindWorkloadUnknownIsFatal)
{
    EXPECT_EXIT(findWorkload("doom"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Spec, BenchmarkNamesMatchSuite)
{
    const auto names = benchmarkNames();
    EXPECT_EQ(names.size(), 26u);
}

TEST(Spec, DiverseStallBehaviour)
{
    // The margin model relies on the suite spanning memory-bound
    // (high stall) through compute-bound (low stall) behaviour.
    double lo = 1.0, hi = 0.0;
    for (const auto &p : fullSuite()) {
        lo = std::min(lo, p.dispatchStallFrac);
        hi = std::max(hi, p.dispatchStallFrac);
    }
    EXPECT_LT(lo, 0.15);
    EXPECT_GT(hi, 0.6);
}

TEST(Spec, McfIsTheMemoryBoundExtreme)
{
    const auto mcf = findWorkload("mcf/ref");
    EXPECT_GT(mcf.dispatchStallFrac, 0.6);
    EXPECT_LT(mcf.ipcNominal, 0.6);
}

TEST(Spec, DatasetVariantsDifferFromBase)
{
    const auto base = findWorkload("mcf/ref");
    const auto variant = findWorkload("mcf/train");
    EXPECT_NE(base.workingSetKb, variant.workingSetKb);
    EXPECT_NE(base.dispatchStallFrac, variant.dispatchStallFrac);
}

} // namespace
} // namespace vmargin::wl
