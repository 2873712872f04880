#include "governor.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace vmargin::sched
{

void
GovernorConfig::validate() const
{
    if (guardSteps < 0)
        util::fatalError("governor: guardSteps must be >= 0 (got " +
                         std::to_string(guardSteps) + ")");
    if (step <= 0)
        util::fatalError("governor: step must be positive (got " +
                         std::to_string(step) + " mV)");
    if (floor > nominal)
        util::fatalError("governor: floor above nominal (floor " +
                         std::to_string(floor) + " mV > nominal " +
                         std::to_string(nominal) + " mV)");
    if (severityTolerance < 0.0)
        util::fatalError(
            "governor: severityTolerance must be >= 0 (got " +
            std::to_string(severityTolerance) + ")");
}

VoltageGovernor::VoltageGovernor(GovernorConfig config)
    : config_(config)
{
    config_.validate();
}

void
VoltageGovernor::setPredictor(CoreId core, LinearPredictor predictor)
{
    if (!predictor.trained())
        util::panicf("VoltageGovernor: untrained predictor for core ",
                     core);
    predictors_[core] = std::move(predictor);
}

bool
VoltageGovernor::hasPredictor(CoreId core) const
{
    return predictors_.count(core) > 0;
}

double
VoltageGovernor::predictSeverity(const CoreObservation &observation,
                                 MilliVolt voltage) const
{
    auto it = predictors_.find(observation.core);
    if (it == predictors_.end())
        util::panicf("VoltageGovernor: no predictor for core ",
                     observation.core);
    // Severity models take the full counter row with the voltage
    // appended as the last feature.
    return std::max(0.0, it->second.predictAppended(
                             observation.counterFeatures,
                             static_cast<double>(voltage)));
}

MilliVolt
VoltageGovernor::decide(
    const std::vector<CoreObservation> &observations) const
{
    if (observations.empty())
        return config_.nominal;

    // Fail-safe: an unmodelled core pins the domain at nominal.
    for (const auto &obs : observations)
        if (!hasPredictor(obs.core))
            return config_.nominal;

    MilliVolt lowest_ok = config_.nominal;
    for (MilliVolt v = config_.nominal; v >= config_.floor;
         v -= config_.step) {
        bool all_ok = true;
        for (const auto &obs : observations) {
            if (predictSeverity(obs, v) > config_.severityTolerance) {
                all_ok = false;
                break;
            }
        }
        if (!all_ok)
            break;
        lowest_ok = v;
    }

    const MilliVolt guarded =
        lowest_ok + config_.guardSteps * config_.step;
    return std::min(config_.nominal, guarded);
}

} // namespace vmargin::sched
