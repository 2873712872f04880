#include "chip.hh"

#include "util/logging.hh"

namespace vmargin::sim
{

Chip::Chip(const XGene2Params &params, ChipCorner corner,
           uint32_t serial, DesignEnhancements enhancements)
    : params_(params), variation_(params, corner, serial),
      caches_(std::make_unique<CacheHierarchy>(params)),
      margins_(params, variation_, enhancements),
      pmdDomain_("PMD", params.nominalPmdVoltage,
                 params.voltageStepSize, params.minSettableVoltage),
      socDomain_("PCP/SoC", params.nominalSocVoltage,
                 params.voltageStepSize, params.minSettableVoltage)
{
    for (PmdId p = 0; p < params_.numPmds; ++p)
        pmds_.push_back(
            std::make_unique<Pmd>(p, params_, caches_.get()));
}

std::string
Chip::name() const
{
    return cornerName(corner()) + "#" + std::to_string(serial());
}

Pmd &
Chip::pmd(PmdId id)
{
    if (id < 0 || static_cast<size_t>(id) >= pmds_.size())
        util::panicf("Chip: PMD ", id, " out of range");
    return *pmds_[static_cast<size_t>(id)];
}

const Pmd &
Chip::pmd(PmdId id) const
{
    if (id < 0 || static_cast<size_t>(id) >= pmds_.size())
        util::panicf("Chip: PMD ", id, " out of range");
    return *pmds_[static_cast<size_t>(id)];
}

Core &
Chip::core(CoreId id)
{
    return pmd(params_.pmdOfCore(id)).core(id);
}

RunResult
Chip::runOnCore(CoreId core_id, const wl::WorkloadProfile &workload,
                Seed run_seed, const ExecutionConfig &overrides)
{
    return execute(core_id, workload, run_seed, overrides, false);
}

RunResult
Chip::profileOnCore(CoreId core_id, const wl::WorkloadProfile &workload,
                    Seed run_seed, const ExecutionConfig &overrides)
{
    return execute(core_id, workload, run_seed, overrides, true);
}

RunResult
Chip::execute(CoreId core_id, const wl::WorkloadProfile &workload,
              Seed run_seed, const ExecutionConfig &overrides,
              bool profile)
{
    const Pmd &owner = pmd(params_.pmdOfCore(core_id));

    ExecutionConfig config = overrides;
    config.voltage = pmdDomain_.voltage();
    config.frequency = owner.clock().frequency();
    config.speedClass = owner.clock().speedClass();
    config.seed = run_seed;

    const OnsetSet onsets = margins_.onsets(
        core_id, workload, config.speedClass);

    Core &target = core(core_id);
    RunResult result = profile ? target.run(workload, onsets, config)
                               : target.measure(workload, onsets, config);
    for (const auto &record : result.errors)
        edac_.report(record);
    return result;
}

void
Chip::reset()
{
    pmdDomain_.reset();
    socDomain_.reset();
    for (auto &pmd_ptr : pmds_)
        pmd_ptr->clock().reset();
    caches_->invalidateAll();
    edac_.clear();
}

} // namespace vmargin::sim
