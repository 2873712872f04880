/**
 * @file
 * governor_soak: a supervised governor daemon serving a fixed number
 * of rounds over eight placements under a hostile management plane,
 * with the daemon journal flushed per round. The rounds are split
 * into sessions by roundBudget, so every session after the first is
 * a kill plus a resume from the journal on a brand-new platform and
 * daemon. One iteration runs one soak per worker thread at once.
 */

#include "common.hh"
#include "core/fleet.hh"
#include "core/predictor.hh"
#include "sched/daemon.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace perfbench
{

using namespace vmargin;

namespace
{

constexpr int kRounds = 96;
constexpr int kSessions = 4;
constexpr uint32_t kMaxEpochs = 8;

class GovernorSoak : public Workload
{
  public:
    GovernorSoak(const Options &options, Record &record)
        : options_(options), record_(record),
          journal_(options.workdir + "/governor_soak.journal"),
          telemetry_(options.workdir + "/governor_soak.telemetry.jsonl")
    {
        const auto suite = wl::headlineSuite();
        for (CoreId core = 0; core < 8; ++core)
            placements_.push_back({suite.at(core).id(), core});
        clients = options.workers;
    }

    void setup() override
    {
        train();
        // The ground truth: one uninterrupted session without a
        // journal.
        const sched::DaemonResult whole = session("", 0, "");
        reference_ = util::hashSeed(sched::formatDaemonReport(whole));
        record_.text("governor_soak.report_hash", hex(reference_));
        record_.value("fidelity.savings_pct", whole.energySavingsPercent);
        record_.check("governor_soak.reference_complete",
                      whole.complete &&
                          whole.rounds.size() ==
                              static_cast<size_t>(kRounds),
                      "the uninterrupted session served " +
                          std::to_string(whole.rounds.size()) + " of " +
                          std::to_string(kRounds) + " rounds");

        const Iteration warm = iterate(false);
        ++setupAttempted;
        setupFailed += warm.ok ? 0 : 1;
    }

    Iteration iterate(bool traced) override
    {
        // Every client runs the same sessioned soak on its own
        // platform, daemon and journal.
        std::vector<Soak> soaks(static_cast<size_t>(clients));
        runClients(clients, [&](int client) {
            soaks[static_cast<size_t>(client)] = soak(client, traced);
        });

        bool ok = true;
        for (const Soak &s : soaks) {
            for (const double ms : s.sessionMs)
                record_.sample("sched.daemon.session_ms", ms);
            ok &= record_.check(
                "governor_soak.complete_in_sessions",
                s.complete && s.sessions == kSessions,
                "the soak took " + std::to_string(s.sessions) +
                    " sessions, expected " + std::to_string(kSessions));
            ok &= record_.check(
                "governor_soak.resumed_equals_uninterrupted",
                s.hash == reference_,
                "sessioned report hash " + hex(s.hash) +
                    " differs from the uninterrupted " + hex(reference_));
        }
        return {static_cast<double>(clients * kRounds), ok};
    }

  private:
    struct Soak
    {
        bool complete = false;
        int sessions = 0;
        uint64_t hash = 0;
        std::vector<double> sessionMs;
    };

    /** One soak: kSessions budgeted sessions, each a kill plus a
     *  resume from the journal. Session times are kept only when
     *  @p traced. */
    Soak soak(int client, bool traced) const
    {
        std::string suffix = std::to_string(client);
        suffix.insert(suffix.begin(), '.');
        const std::string journal = journal_ + suffix;
        removeFile(journal);
        Soak out;
        sched::DaemonResult result;
        while (out.sessions < kSessions + 1) {
            const auto begin = SteadyClock::now();
            result = session(journal, kRounds / kSessions,
                             traced ? telemetry_ + suffix : "");
            if (traced)
                out.sessionMs.push_back(secondsSince(begin) * 1e3);
            ++out.sessions;
            if (result.complete)
                break;
        }
        out.complete = result.complete;
        out.hash = util::hashSeed(sched::formatDaemonReport(result));
        return out;
    }

    void train()
    {
        const auto suite = wl::headlineSuite();
        sim::Platform tmpl(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
        FleetConfig config;
        config.chips = {options_.chip};
        FrameworkConfig &fw = config.framework;
        fw.workloads = suite;
        fw.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        fw.campaigns = 6;
        fw.maxEpochs = kMaxEpochs;
        fw.startVoltage = 930;
        fw.endVoltage = 840;
        fw.workers = options_.workers;
        FleetExecutor executor(&tmpl);
        const CharacterizationReport report =
            executor.run(config).chips.at(0).report;

        sim::Platform chip(sim::XGene2Params{}, options_.chip.corner,
                           options_.chip.serial);
        Profiler profiler(&chip);
        profiles_ = profiler.profileSuite(suite, 0, kMaxEpochs);

        sched::GovernorConfig governor_config;
        governor_config.severityTolerance = 6.0;
        governor_config.guardSteps = 0;
        governor_ = sched::VoltageGovernor(governor_config);
        for (CoreId core = 0; core < 8; ++core) {
            const Dataset dataset =
                buildSeverityDataset(profiles_, report, core);
            LinearPredictor predictor;
            predictor.fit(dataset.x, dataset.y, 5, 8);
            governor_.setPredictor(core, std::move(predictor));
        }
    }

    /** One daemon session on a fresh faulted platform. */
    sched::DaemonResult session(const std::string &journal, int budget,
                                const std::string &telemetry) const
    {
        sim::Platform platform(sim::XGene2Params{},
                               options_.chip.corner,
                               options_.chip.serial);
        sim::FaultPlanConfig plan;
        plan.i2cWriteFailure = 0.10;
        plan.staleRead = 0.05;
        plan.managementHang = 0.002;
        plan.watchdogMiss = 0.05;
        plan.seed = options_.faultSeed;
        platform.installFaultPlan(plan);

        sched::GovernorDaemon daemon(&platform, governor_);
        for (const auto &profile : profiles_)
            daemon.registerProfile(profile);
        sched::DaemonOptions options;
        options.maxEpochs = kMaxEpochs;
        options.supervise = true;
        options.journalPath = journal;
        options.roundBudget = budget;
        options.flushEveryRounds = 1;
        options.telemetryPath = telemetry;
        return daemon.run(placements_, kRounds, options_.runSeed,
                          options);
    }

    const Options &options_;
    Record &record_;
    std::string journal_;
    std::string telemetry_;
    std::vector<Placement> placements_;
    std::vector<WorkloadCounters> profiles_;
    sched::VoltageGovernor governor_;
    uint64_t reference_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeGovernorSoak(const Options &options, Record &record)
{
    return std::make_unique<GovernorSoak>(options, record);
}

} // namespace perfbench
