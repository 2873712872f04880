#include "platform.hh"

namespace vmargin::sim
{

Platform::Platform(const XGene2Params &params, ChipCorner corner,
                   uint32_t serial, DesignEnhancements enhancements)
    : chip_(std::make_unique<Chip>(params, corner, serial,
                                   enhancements)),
      enhancements_(enhancements)
{
    powerCycle();
}

std::unique_ptr<Platform>
Platform::freshReplica() const
{
    return freshReplica(chip_->corner(), chip_->serial());
}

std::unique_ptr<Platform>
Platform::freshReplica(ChipCorner corner, uint32_t serial) const
{
    auto replica = std::make_unique<Platform>(
        chip_->params(), corner, serial, enhancements_);
    if (faultPlan_)
        replica->installFaultPlan(faultPlan_->config());
    return replica;
}

RunResult
Platform::runWorkload(CoreId core,
                      const wl::WorkloadProfile &workload,
                      Seed run_seed, const ExecutionConfig &overrides)
{
    return execute(core, workload, run_seed, overrides, false);
}

RunResult
Platform::profileWorkload(CoreId core,
                          const wl::WorkloadProfile &workload,
                          Seed run_seed,
                          const ExecutionConfig &overrides)
{
    return execute(core, workload, run_seed, overrides, true);
}

RunResult
Platform::execute(CoreId core, const wl::WorkloadProfile &workload,
                  Seed run_seed, const ExecutionConfig &overrides,
                  bool profile)
{
    if (!responsive()) {
        // Nothing executes on a hung or powered-off machine; report
        // it as a system-level failure of this attempt.
        RunResult dead;
        dead.systemCrashed = true;
        dead.voltage = chip_->pmdDomain().voltage();
        dead.frequency =
            chip_->pmd(chip_->params().pmdOfCore(core))
                .clock()
                .frequency();
        return dead;
    }

    ExecutionConfig exec = overrides;
    exec.temperature = thermal_.temperature();
    RunResult result =
        profile ? chip_->profileOnCore(core, workload, run_seed, exec)
                : chip_->runOnCore(core, workload, run_seed, exec);

    // Keep the package at the fan controller's setpoint for the
    // duration of the run; a rough 20 W proxy load is fine because
    // the controller holds the target anyway.
    thermal_.step(result.simulatedSeconds, 20.0);

    if (result.systemCrashed)
        state_ = MachineState::Unresponsive;
    return result;
}

void
Platform::powerCycle()
{
    chip_->reset();
    thermal_.reset();
    // Boot settles the package at the fan target.
    thermal_.step(30.0, 15.0);
    state_ = MachineState::Running;
    ++bootCount_;
}

void
Platform::settleForRound()
{
    if (!responsive())
        return;
    chip_->reset();
    thermal_.reset();
    thermal_.step(30.0, 15.0);
}

void
Platform::powerOff()
{
    state_ = MachineState::Off;
}

void
Platform::hang()
{
    if (state_ == MachineState::Running)
        state_ = MachineState::Unresponsive;
}

void
Platform::installFaultPlan(const FaultPlanConfig &config)
{
    faultPlan_ = std::make_unique<FaultPlan>(config);
}

} // namespace vmargin::sim
