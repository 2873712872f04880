#include "watchdog.hh"

#include "util/logging.hh"

namespace vmargin::sim
{

Watchdog::Watchdog(Platform *platform) : platform_(platform)
{
    if (!platform_)
        util::panicf("Watchdog: null platform");
}

bool
Watchdog::ensureResponsive(WatchdogContext context)
{
    if (platform_->responsive())
        return false;

    WatchdogEvent event;
    event.sequence = events_.size() + 1;
    event.context = context;
    event.pmdVoltage = platform_->chip().pmdDomain().voltage();

    FaultPlan *plan = platform_->faultPlan();
    if (plan && plan->shouldInject(FaultOp::WatchdogMiss)) {
        event.outcome = WatchdogOutcome::MissedCycle;
        events_.push_back(event);
        ++missedCycles_;
        return false; // machine stays down; caller must poll again
    }

    event.outcome = WatchdogOutcome::PowerCycled;
    events_.push_back(event);
    ++powerCycles_;
    platform_->powerCycle();
    return true;
}

} // namespace vmargin::sim
