/**
 * @file
 * The X-Gene 2 micro-server as a bootable machine: the chip plus its
 * thermal controller, a power/reset front panel and the notion of
 * being responsive or hung. This is what the external watchdog and
 * the characterization framework interact with.
 */

#ifndef VMARGIN_SIM_PLATFORM_HH
#define VMARGIN_SIM_PLATFORM_HH

#include <memory>

#include "chip.hh"
#include "fault_injection.hh"
#include "thermal.hh"

namespace vmargin::sim
{

/** Machine state as seen from outside. */
enum class MachineState
{
    Off,         ///< power removed
    Running,     ///< booted and answering on the serial console
    Unresponsive ///< hung after a system crash; needs a power cycle
};

/** The micro-server. */
class Platform
{
  public:
    /**
     * Build and boot a machine around one chip.
     * @param params platform parameters
     * @param corner chip corner
     * @param serial chip serial number
     */
    Platform(const XGene2Params &params, ChipCorner corner,
             uint32_t serial, DesignEnhancements enhancements = {});

    Chip &chip() { return *chip_; }
    const Chip &chip() const { return *chip_; }

    ThermalModel &thermal() { return thermal_; }
    const ThermalModel &thermal() const { return thermal_; }

    MachineState state() const { return state_; }

    /** True when the serial console answers. */
    bool responsive() const
    {
        return state_ == MachineState::Running;
    }

    /** Number of boots since construction (>= 1). */
    uint64_t bootCount() const { return bootCount_; }

    /**
     * Measurement run of a workload on a core at the chip's current
     * settings (Chip::runOnCore: no cache or PMU model, counters
     * zero). Returns a crashed RunResult immediately when the
     * machine is not running (the caller forgot to power cycle). On
     * a system crash the machine transitions to Unresponsive.
     */
    RunResult runWorkload(CoreId core,
                          const wl::WorkloadProfile &workload,
                          Seed run_seed,
                          const ExecutionConfig &overrides = {});

    /**
     * Profiling run: runWorkload() with the cache and PMU model on
     * (Chip::profileOnCore), so RunResult::counters holds the run's
     * PMU counters. Profiler is its one production caller.
     */
    RunResult profileWorkload(CoreId core,
                              const wl::WorkloadProfile &workload,
                              Seed run_seed,
                              const ExecutionConfig &overrides = {});

    /** Front panel: pull power, then boot fresh at nominal V/F. */
    void powerCycle();

    /**
     * Settle a *running* machine into the canonical round-start
     * state: chip reset (domains to nominal, caches invalidated,
     * EDAC cleared) and package re-settled at the fan target — the
     * same state a fresh boot leaves behind, without a power cycle.
     * The undervolting daemon calls this between scheduling rounds
     * so every round is a pure function of its experiment
     * coordinates (seed, round) rather than of the platform's
     * execution history; that purity is what makes a journal-resumed
     * daemon session byte-identical to an uninterrupted one. No-op
     * when the machine is down (the watchdog's power cycle performs
     * the same reset anyway).
     */
    void settleForRound();

    /** Cut power without rebooting. */
    void powerOff();

    /**
     * Wedge a running machine without any crash report — the effect
     * of a management transaction hanging the kernel's I2C path.
     */
    void hang();

    /**
     * Install a management-plane fault plan (replaces any existing
     * one). SlimPro and Watchdog consult it on every transaction.
     */
    void installFaultPlan(const FaultPlanConfig &config);

    /** Remove the fault plan (management plane perfectly reliable). */
    void clearFaultPlan() { faultPlan_.reset(); }

    /** Installed fault plan, or nullptr. */
    FaultPlan *faultPlan() { return faultPlan_.get(); }
    const FaultPlan *faultPlan() const { return faultPlan_.get(); }

    /**
     * Build a brand-new machine with this one's fabrication inputs:
     * same parameters, corner, serial and design enhancements, plus
     * a copy of the installed fault plan configuration (streams are
     * rebased by the campaign layer's scopeTo, so a replica injects
     * the same faults for the same experiment coordinates). Because
     * every measurement is seeded purely by its experiment
     * coordinates, a replica measures exactly what this machine
     * would — the parallel campaign executor runs one replica per
     * in-flight cell.
     */
    std::unique_ptr<Platform> freshReplica() const;

    /**
     * Like freshReplica(), but fabricate the copy as a *different
     * part*: same platform parameters, design enhancements and fault
     * plan configuration, with the given corner and serial seeding
     * its process variation. The fleet executor uses this to stamp
     * out one prototype per fleet chip from a single template
     * machine.
     */
    std::unique_ptr<Platform> freshReplica(ChipCorner corner,
                                           uint32_t serial) const;

  private:
    RunResult execute(CoreId core, const wl::WorkloadProfile &workload,
                      Seed run_seed, const ExecutionConfig &overrides,
                      bool profile);

    std::unique_ptr<Chip> chip_;
    DesignEnhancements enhancements_;
    ThermalModel thermal_;
    MachineState state_ = MachineState::Off;
    uint64_t bootCount_ = 0;
    std::unique_ptr<FaultPlan> faultPlan_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_PLATFORM_HH
