/**
 * @file
 * predict_rfe: the paper's Figs. 7/8 prediction pipeline. Setup
 * characterizes one TTT chip over the full 40-sample suite on all
 * eight cores and profiles the PMU counters; each iteration builds
 * the Vmin and severity datasets of every core and evaluates the
 * RFE + OLS predictor on both (16 fits), the cores spread over the
 * worker threads.
 */

#include <algorithm>
#include <cstring>

#include "common.hh"
#include "core/fleet.hh"
#include "core/predictor.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace perfbench
{

using namespace vmargin;

namespace
{

constexpr CoreId kCores = 8;

uint64_t
mixDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return util::mixSeed(hash, bits);
}

class PredictRfe : public Workload
{
  public:
    PredictRfe(const Options &options, Record &record)
        : options_(options), record_(record)
    {
        clients = std::min(options.workers, static_cast<int>(kCores));
    }

    void setup() override
    {
        const auto suite = wl::fullSuite();
        sim::Platform tmpl(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
        FleetConfig config;
        config.chips = {options_.chip};
        FrameworkConfig &fw = config.framework;
        fw.workloads = suite;
        fw.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        fw.frequency = 2400;
        fw.startVoltage = 930;
        fw.endVoltage = 830;
        fw.campaigns = 10;
        fw.maxEpochs = 20;
        fw.workers = options_.workers;
        FleetExecutor executor(&tmpl);
        report_ = executor.run(config).chips.at(0).report;

        sim::Platform chip(sim::XGene2Params{}, options_.chip.corner,
                           options_.chip.serial);
        Profiler profiler(&chip);
        profiles_.clear();
        for (CoreId core = 0; core < kCores; ++core)
            profiles_.push_back(profiler.profileSuite(suite, core, 20));

        const Iteration warm = iterate(false);
        ++setupAttempted;
        setupFailed += warm.ok ? 0 : 1;
        record_.value("fidelity.rmse_vs_naive",
                      rmseRatioSum_ / fits_);
    }

    Iteration iterate(bool traced) override
    {
        // The eight cores' pipelines run on `clients` threads; each
        // core's outcome lands in its own slot and is folded in core
        // order, so the result digest is independent of scheduling.
        std::vector<CoreOutcome> outcomes(kCores);
        runClients(clients, [&](int client) {
            for (CoreId core = static_cast<CoreId>(client); core < kCores;
                 core += static_cast<CoreId>(clients))
                outcomes[core] = evaluateCore(core);
        });

        uint64_t digest = 0x9e3779b97f4a7c15ULL;
        rmseRatioSum_ = 0.0;
        fits_ = 0;
        for (const CoreOutcome &outcome : outcomes) {
            digest = util::mixSeed(digest, outcome.digest);
            rmseRatioSum_ += outcome.rmseRatioSum;
            fits_ += static_cast<int>(outcome.evaluateMs.size());
            if (!traced)
                continue;
            record_.sample("core.predictor.dataset_ms", outcome.datasetMs);
            for (const double ms : outcome.evaluateMs)
                record_.sample("core.predictor.evaluate_ms", ms);
        }
        if (reference_ == 0) {
            reference_ = digest;
            record_.text("predict_rfe.result_hash", hex(digest));
        }
        const bool ok = record_.check(
            "predict_rfe.results_match_first", digest == reference_,
            "selected features or R2/RMSE hash " + hex(digest) +
                " differs from the first iteration's " +
                hex(reference_));
        return {static_cast<double>(fits_), ok};
    }

  private:
    struct CoreOutcome
    {
        uint64_t digest = 0;
        double rmseRatioSum = 0.0;
        double datasetMs = 0.0;
        std::vector<double> evaluateMs;
    };

    /** Build both datasets of @p core and evaluate the predictor on
     *  each. */
    CoreOutcome evaluateCore(CoreId core) const
    {
        CoreOutcome outcome;
        auto begin = SteadyClock::now();
        const Dataset vmin =
            buildVminDataset(profiles_[core], report_, core);
        const Dataset severity =
            buildSeverityDataset(profiles_[core], report_, core);
        outcome.datasetMs = secondsSince(begin) * 1e3;
        for (const Dataset *dataset : {&vmin, &severity}) {
            begin = SteadyClock::now();
            const EvaluationResult result =
                evaluatePredictor(*dataset, EvaluationConfig{});
            outcome.evaluateMs.push_back(secondsSince(begin) * 1e3);
            for (const size_t feature : result.selectedFeatures)
                outcome.digest = util::mixSeed(outcome.digest, feature);
            outcome.digest = mixDouble(outcome.digest, result.r2);
            outcome.digest = mixDouble(outcome.digest, result.rmse);
            if (result.naiveRmse > 0.0)
                outcome.rmseRatioSum += result.rmse / result.naiveRmse;
        }
        return outcome;
    }

    const Options &options_;
    Record &record_;
    CharacterizationReport report_;
    std::vector<std::vector<WorkloadCounters>> profiles_;
    uint64_t reference_ = 0;
    double rmseRatioSum_ = 0.0;
    int fits_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makePredictRfe(const Options &options, Record &record)
{
    return std::make_unique<PredictRfe>(options, record);
}

} // namespace perfbench
