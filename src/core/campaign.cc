#include "campaign.hh"

#include "power/dvfs.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vmargin
{

CampaignRunner::CampaignRunner(sim::Platform *platform)
    : platform_(platform), slimpro_(platform), watchdog_(platform),
      managed_(platform, &slimpro_, &watchdog_)
{
    if (!platform_)
        util::panicf("CampaignRunner: null platform");
}

Seed
CampaignRunner::campaignSeedBase(const CampaignConfig &config) const
{
    Seed seed = util::hashSeed(config.workload.id());
    seed = util::mixSeed(
        seed, static_cast<uint64_t>(platform_->chip().corner()) << 32 |
                  platform_->chip().serial());
    seed = util::mixSeed(seed, static_cast<uint64_t>(config.core));
    return seed;
}

Seed
CampaignRunner::runSeed(Seed base, const CampaignConfig &config,
                        MilliVolt voltage, int run_index) const
{
    Seed seed = util::mixSeed(base, static_cast<uint64_t>(voltage));
    seed = util::mixSeed(seed,
                         static_cast<uint64_t>(config.frequency));
    seed = util::mixSeed(seed, config.campaignIndex);
    seed = util::mixSeed(seed, static_cast<uint64_t>(run_index));
    return seed;
}

Seed
CampaignRunner::faultScope(const CampaignConfig &config) const
{
    // Same coordinate hashing as runSeed, minus voltage/run (the
    // fault stream covers the whole campaign) — so a campaign's
    // fault sequence is a pure function of what is being measured,
    // never of how many campaigns ran before it.
    Seed seed = util::hashSeed("fault-scope");
    seed = util::mixSeed(seed, util::hashSeed(config.workload.id()));
    seed = util::mixSeed(
        seed, static_cast<uint64_t>(platform_->chip().corner()) << 32 |
                  platform_->chip().serial());
    seed = util::mixSeed(seed, static_cast<uint64_t>(config.core));
    seed = util::mixSeed(seed,
                         static_cast<uint64_t>(config.frequency));
    seed = util::mixSeed(seed,
                         static_cast<uint64_t>(config.startVoltage));
    seed = util::mixSeed(seed,
                         static_cast<uint64_t>(config.endVoltage));
    seed = util::mixSeed(seed, config.campaignIndex);
    return seed;
}

CampaignResult
CampaignRunner::run(const CampaignConfig &config)
{
    config.workload.validate();
    config.retry.validate();
    const auto &params = platform_->chip().params();
    if (config.core < 0 || config.core >= params.numCores)
        util::fatalError("campaign: core out of range");
    if (config.runsPerVoltage < 1)
        util::fatalError("campaign: runsPerVoltage must be >= 1");
    if (config.startVoltage < config.endVoltage)
        util::fatalError("campaign: inverted voltage range");

    managed_.setPolicy(config.retry);
    if (sim::FaultPlan *plan = platform_->faultPlan())
        plan->scopeTo(faultScope(config));

    CampaignResult result;
    result.config = config;
    const uint64_t interventions_before = watchdog_.interventions();
    const RecoveryTelemetry telemetry_before = managed_.telemetry();

    // ---- initialization phase -----------------------------------
    managed_.revive(sim::WatchdogContext::CampaignStart);
    // Fan setpoint first so the boot settles the package at the
    // configured temperature (paper: 43 C for every experiment).
    managed_.setFanTarget(config.fanTarget);
    platform_->powerCycle(); // known-clean state

    const PmdId target_pmd = params.pmdOfCore(config.core);
    // Reliable cores setup: park every other PMD at the minimum
    // frequency, keep the PMD under characterization at the target.
    const auto applyFrequencyPlan = [&]() -> bool {
        bool ok = true;
        for (PmdId p = 0; p < params.numPmds; ++p)
            ok = managed_.setPmdFrequency(
                     p, p == target_pmd ? config.frequency
                                        : params.minFrequency) &&
                 ok;
        return ok;
    };

    // Boot count of the last boot whose frequency plan fully took;
    // any reboot (crash recovery, revival inside a retry) resets the
    // chip to nominal V/F and invalidates the plan.
    uint64_t setup_boot = 0;
    if (applyFrequencyPlan())
        setup_boot = platform_->bootCount();

    // Establish one run's operating point: machine up, frequency
    // plan applied, domain at `voltage`. A power cycle sneaking in
    // through recovery resets V/F, so loop until one pass completes
    // without a reboot (bounded by the retry budget).
    const auto establishOperatingPoint =
        [&](MilliVolt voltage) -> bool {
        for (int pass = 0; pass < config.retry.attemptsPerOp;
             ++pass) {
            if (!managed_.revive(sim::WatchdogContext::PreRunCheck))
                return false;
            const uint64_t boot = platform_->bootCount();
            if (boot != setup_boot) {
                if (!applyFrequencyPlan())
                    continue;
                setup_boot = boot;
            }
            if (!managed_.setPmdVoltage(voltage))
                continue;
            if (platform_->bootCount() == setup_boot)
                return true; // no reboot slipped in; point holds
        }
        return false;
    };

    const auto sweep = power::voltageSweep(
        config.startVoltage, config.endVoltage,
        params.voltageStepSize);

    // The string-hashing part of the run seed covers coordinates
    // that never change inside the sweep; hash it once here instead
    // of once per run.
    const Seed seed_base = campaignSeedBase(config);

    // Pre-size the record vectors so the hot sweep loop appends
    // without reallocating.
    const size_t max_runs =
        sweep.size() * static_cast<size_t>(config.runsPerVoltage);
    result.records.reserve(max_runs);
    result.runs.reserve(max_runs);

    int consecutive_crash_levels = 0;

    // ---- execution phase ----------------------------------------
    for (const MilliVolt voltage : sweep) {
        bool all_crashed_here = true;
        bool any_executed = false;
        for (int r = 0; r < config.runsPerVoltage; ++r) {
            if (!establishOperatingPoint(voltage)) {
                // Retry budget exhausted: the measurement is lost,
                // not fabricated — record it and move on.
                RunKey lost;
                lost.workloadId = config.workload.id();
                lost.core = config.core;
                lost.voltage = voltage;
                lost.frequency = config.frequency;
                lost.campaign = config.campaignIndex;
                lost.runIndex = static_cast<uint32_t>(r);
                result.lostRuns.push_back(std::move(lost));
                continue;
            }

            sim::ExecutionConfig exec;
            exec.maxEpochs = config.maxEpochs;
            exec.droopSensitivityMv = config.droopSensitivityMv;
            const sim::RunResult run = platform_->runWorkload(
                config.core, config.workload,
                runSeed(seed_base, config, voltage, r), exec);

            // Safe data collection: restore nominal before storing
            // the log (possible only when the machine survived; a
            // hung machine gets power-cycled before the next run).
            if (platform_->responsive())
                managed_.setPmdVoltage(params.nominalPmdVoltage);

            RunKey key;
            key.workloadId = config.workload.id();
            key.core = config.core;
            key.voltage = voltage;
            key.frequency = config.frequency;
            key.campaign = config.campaignIndex;
            key.runIndex = static_cast<uint32_t>(r);
            // Classify straight from the simulator's result; the
            // text log is derived later only if someone asks for it
            // (equivalence with the format->parse path is pinned by
            // the classifier round-trip tests).
            result.runs.push_back(classifyRunRecord(key, run));
            result.records.push_back({std::move(key), run});
            any_executed = true;
            all_crashed_here = all_crashed_here && run.systemCrashed;
        }
        // A level counts as reached only if a run executed there; a
        // level whose every run was lost to the management plane was
        // never actually characterized.
        if (any_executed)
            result.lowestVoltageReached = voltage;

        if (any_executed && all_crashed_here) {
            if (++consecutive_crash_levels >=
                config.stopAfterCrashLevels)
                break; // deep inside the non-operating region
        } else {
            consecutive_crash_levels = 0;
        }
    }

    // Leave the machine clean for the next campaign.
    managed_.revive(sim::WatchdogContext::CampaignEnd);
    managed_.setPmdVoltage(params.nominalPmdVoltage);
    for (PmdId p = 0; p < params.numPmds; ++p)
        managed_.setPmdFrequency(p, params.maxFrequency);

    // ---- parsing phase ------------------------------------------
    // (folded into the execution loop: each run was classified
    // directly from its RunResult as it finished, so there is no
    // campaign-wide format-then-reparse pass anymore.)
    result.watchdogInterventions =
        watchdog_.interventions() - interventions_before;
    result.telemetry = managed_.telemetry().since(telemetry_before);
    result.telemetry.lostMeasurements = result.lostRuns.size();
    return result;
}

} // namespace vmargin
