#include "profiler.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace vmargin
{

double
WorkloadCounters::perKilo(sim::PmuEvent event) const
{
    if (!instructions)
        return 0.0;
    const auto value =
        counters[static_cast<size_t>(event)];
    return 1000.0 * static_cast<double>(value) /
           static_cast<double>(instructions);
}

Profiler::Profiler(sim::Platform *platform) : platform_(platform)
{
    if (!platform_)
        util::panicf("Profiler: null platform");
}

WorkloadCounters
Profiler::profile(const wl::WorkloadProfile &workload, CoreId core,
                  uint32_t max_epochs)
{
    workload.validate();
    if (!platform_->responsive())
        platform_->powerCycle();

    // Profiling happens at strictly nominal conditions (phase 2):
    // make sure nobody left the domains scaled.
    platform_->chip().pmdDomain().reset();
    platform_->chip().socDomain().reset();
    for (PmdId p = 0; p < platform_->chip().params().numPmds; ++p)
        platform_->chip().pmd(p).clock().reset();

    sim::ExecutionConfig exec;
    exec.maxEpochs = max_epochs;
    const Seed seed = util::mixSeed(
        util::hashSeed("profiler:" + workload.id()),
        static_cast<uint64_t>(core));
    const sim::RunResult run =
        platform_->profileWorkload(core, workload, seed, exec);
    if (run.abnormal())
        util::panicf("Profiler: abnormal run at nominal conditions "
                     "for ",
                     workload.id(),
                     " — the margin calibration is broken");

    WorkloadCounters out;
    out.workloadId = workload.id();
    out.counters = run.counters;
    out.instructions = run.counters[static_cast<size_t>(
        sim::PmuEvent::INST_RETIRED)];
    return out;
}

std::vector<WorkloadCounters>
Profiler::profileSuite(const std::vector<wl::WorkloadProfile> &suite,
                       CoreId core, uint32_t max_epochs)
{
    std::vector<WorkloadCounters> profiles;
    profiles.reserve(suite.size());
    for (const auto &workload : suite)
        profiles.push_back(profile(workload, core, max_epochs));
    return profiles;
}

stats::Matrix
counterFeatureMatrix(const std::vector<WorkloadCounters> &profiles)
{
    stats::Matrix features(profiles.size(), sim::kNumPmuEvents);
    for (size_t row = 0; row < profiles.size(); ++row)
        for (size_t col = 0; col < sim::kNumPmuEvents; ++col)
            features(row, col) = profiles[row].perKilo(
                static_cast<sim::PmuEvent>(col));
    return features;
}

std::vector<std::string>
counterFeatureNames()
{
    return sim::Pmu::eventNames();
}

} // namespace vmargin
