/**
 * @file
 * External watchdog monitor.
 *
 * The paper wires a Raspberry Pi to the X-Gene 2's serial port and
 * to its power/reset buttons so undervolting campaigns survive the
 * inevitable system crashes without a human in the loop (Figure 2).
 * This class plays that role for the simulated platform: it polls
 * responsiveness over the "serial console", power-cycles a hung
 * machine, and keeps an intervention log the framework can report.
 * Under an installed fault plan the watchdog itself is imperfect: a
 * needed power cycle can be missed, which the recovery layer handles
 * by polling again.
 */

#ifndef VMARGIN_SIM_WATCHDOG_HH
#define VMARGIN_SIM_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "platform.hh"

namespace vmargin::sim
{

/**
 * Why the watchdog was polled. A closed code set (instead of the
 * earlier free-form strings) keeps events machine-comparable in
 * tests and telemetry.
 */
enum class WatchdogContext : uint8_t
{
    Poll,             ///< plain liveness poll
    CampaignStart,    ///< campaign initialization phase
    PreRunCheck,      ///< before a characterization run
    CampaignEnd,      ///< campaign cleanup
    DaemonRoundStart, ///< before a daemon scheduling round
    DaemonEnd,        ///< daemon shutdown
    RecoveryPoll,     ///< retry layer reviving the machine
    CanaryProbe,      ///< before a supervisor canary probe round
};

/** What the poll did. */
enum class WatchdogOutcome : uint8_t
{
    PowerCycled, ///< pressed the power switch; machine rebooting
    MissedCycle, ///< intervention needed but missed (injected fault)
};

/** One watchdog intervention (or missed intervention). */
struct WatchdogEvent
{
    uint64_t sequence = 0; ///< monotonically increasing id
    WatchdogContext context = WatchdogContext::Poll;
    WatchdogOutcome outcome = WatchdogOutcome::PowerCycled;
    MilliVolt pmdVoltage = 0; ///< domain voltage at the time
};

/** Raspberry-Pi-style external monitor. */
class Watchdog
{
  public:
    /** @param platform machine under supervision (not owned) */
    explicit Watchdog(Platform *platform);

    /**
     * Poll the serial console; if the machine is hung (or off),
     * press the power switch and log the intervention. Under a
     * fault plan the press can be missed: the event is logged with
     * outcome MissedCycle and the machine stays down. Returns true
     * only when a power cycle actually happened (callers reapply
     * their V/F setup then).
     */
    bool ensureResponsive(WatchdogContext context);

    /** Interventions (and missed ones) since construction. */
    const std::vector<WatchdogEvent> &events() const
    {
        return events_;
    }

    /** Number of power cycles the watchdog performed. */
    uint64_t interventions() const { return powerCycles_; }

    /** Number of needed power cycles that were missed. */
    uint64_t missedCycles() const { return missedCycles_; }

  private:
    Platform *platform_;
    std::vector<WatchdogEvent> events_;
    uint64_t powerCycles_ = 0;
    uint64_t missedCycles_ = 0;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_WATCHDOG_HH
