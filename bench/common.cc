#include "common.hh"

#include <algorithm>
#include <iostream>

#include "util/strings.hh"

namespace vmargin::bench
{

ChipReport
characterizeChip(sim::ChipCorner corner, uint32_t serial,
                 const std::vector<wl::WorkloadProfile> &workloads,
                 const std::vector<CoreId> &cores,
                 MegaHertz frequency, MilliVolt start, MilliVolt end,
                 int campaigns, uint32_t max_epochs)
{
    ChipReport out;
    out.platform = std::make_unique<sim::Platform>(
        sim::XGene2Params{}, corner, serial);
    CharacterizationFramework framework(out.platform.get());

    FrameworkConfig config;
    config.workloads = workloads;
    config.cores = cores;
    config.frequency = frequency;
    config.startVoltage = start;
    config.endVoltage = end;
    config.campaigns = campaigns;
    config.maxEpochs = max_epochs;
    out.report = framework.characterize(config);
    return out;
}

std::vector<ChipReport>
characterizeThreeChips(
    const std::vector<wl::WorkloadProfile> &workloads,
    const std::vector<CoreId> &cores, int campaigns,
    uint32_t max_epochs)
{
    std::vector<ChipReport> reports;
    uint32_t serial = 1;
    for (sim::ChipCorner corner : sim::kAllCorners) {
        std::cerr << "characterizing " << sim::cornerName(corner)
                  << " (" << workloads.size() << " benchmarks x "
                  << cores.size() << " cores x " << campaigns
                  << " campaigns)...\n";
        reports.push_back(characterizeChip(
            corner, serial++, workloads, cores, 2400, 930, 830,
            campaigns, max_epochs));
    }
    return reports;
}

namespace
{

/** Linear-interpolated quantile @p q of ascending @p sorted. */
double
quantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

} // namespace

RepeatedTiming
repeatTimed(const std::function<double()> &once)
{
    constexpr size_t kMinRepetitions = 7;
    constexpr double kMinSeconds = 0.3;
    std::vector<double> seconds;
    double total = 0.0;
    while (seconds.size() < kMinRepetitions || total < kMinSeconds) {
        seconds.push_back(once());
        total += seconds.back();
    }
    std::sort(seconds.begin(), seconds.end());

    RepeatedTiming timing;
    timing.repetitions = static_cast<int>(seconds.size());
    timing.medianSeconds = quantile(seconds, 0.5);
    timing.minSeconds = seconds.front();
    timing.iqrSeconds =
        quantile(seconds, 0.75) - quantile(seconds, 0.25);
    return timing;
}

void
printComparison(const std::string &what, double measured,
                double paper, const std::string &unit)
{
    std::cout << util::padRight(what, 44) << " measured "
              << util::padLeft(util::formatDouble(measured, 1), 7)
              << ' ' << unit << "  |  paper "
              << util::padLeft(util::formatDouble(paper, 1), 7)
              << ' ' << unit << '\n';
}

} // namespace vmargin::bench
