/**
 * @file
 * Layer passes: call sequences the benchmark drives through each
 * layer's public functions, timed from outside, so a layer's cost is
 * measured apart from the layers above it.
 *
 *  - kernel pass: sim::Core::run over the headline workloads and the
 *    sweep's voltage grid, caches invalidated between runs;
 *  - cache-model pass: CacheHierarchy::dataAccessBatch and
 *    instrFetchBatch fed by wl::AddressStream with each headline
 *    workload's footprint, starting from empty caches;
 *  - campaign pass: CampaignRunner::run on fresh replicas of the
 *    fleet's chips for sampled cells, re-classified with
 *    classifyRunRecord;
 *  - ledger pass: replay, derive and append on a warm cell cache.
 */

#include <algorithm>
#include <map>

#include "common.hh"
#include "core/campaign.hh"
#include "core/ledger.hh"
#include "power/dvfs.hh"
#include "sim/cache_hierarchy.hh"
#include "sim/core.hh"
#include "util/rng.hh"
#include "workloads/generator.hh"
#include "workloads/spec.hh"

namespace perfbench
{

using namespace vmargin;

namespace
{

constexpr MilliVolt kSweepStart = 930;
constexpr MilliVolt kSweepEnd = 830;
constexpr uint32_t kMaxEpochs = 20;
/** Kernel-pass repetitions: 5 x 10 workloads x 21 voltages = 1050
 *  runs, enough for a p99 with ten samples beyond it. */
constexpr int kKernelReps = 5;
/** Cache-pass accesses per workload and stream. */
constexpr uint32_t kCacheAccesses = 1u << 18;
/** Campaign pass: cells per fleet chip x campaigns per cell =
 *  8 x 10 per chip, 240 campaigns over the trio (p95 needs 200). */
constexpr int kCampaignCellsPerChip = 8;
constexpr int kCampaignsPerCell = 10;
constexpr int kLedgerReps = 5;
/** On-disk header of the cell-cache ledger format. */
constexpr const char *kCellCacheHeader = "vmargin-cellcache";

void
kernelPass(const Options &options, Record &record)
{
    const sim::XGene2Params params;
    sim::CacheHierarchy caches(params);
    sim::Core core(0, params, &caches);

    // Fixed onsets straddling the grid, so every fault regime of the
    // kernel (nominal, SDC/CE, UE, AC, SC) is exercised.
    sim::OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;

    const auto suite = wl::headlineSuite();
    const auto grid = power::voltageSweep(kSweepStart, kSweepEnd,
                                          params.voltageStepSize);

    // Warm-up: first-touch page faults on the cache arrays stay out
    // of the measurement.
    for (const auto &workload : suite) {
        sim::ExecutionConfig config;
        config.seed = util::mixSeed(options.runSeed, 0x7E57);
        config.maxEpochs = kMaxEpochs;
        caches.invalidateAll();
        (void)core.run(workload, onsets, config);
    }

    uint64_t runs = 0;
    uint64_t epochs = 0;
    double total_ns = 0.0;
    uint64_t hash = util::mixSeed(options.runSeed, 0xBE7C4);
    for (int rep = 0; rep < kKernelReps; ++rep) {
        for (const auto &workload : suite) {
            for (const MilliVolt v : grid) {
                sim::ExecutionConfig config;
                config.voltage = v;
                config.seed = util::mixSeed(
                    util::mixSeed(options.runSeed,
                                  static_cast<uint64_t>(rep)),
                    static_cast<uint64_t>(v));
                config.maxEpochs = kMaxEpochs;
                caches.invalidateAll();
                const auto begin = SteadyClock::now();
                const sim::RunResult r =
                    core.run(workload, onsets, config);
                const double ns = secondsSince(begin) * 1e9;
                record.sample("sim.core.run_us", ns / 1e3);
                total_ns += ns;
                ++runs;
                epochs += r.epochsExecuted;
                hash = util::mixSeed(hash, r.epochsExecuted);
                hash = util::mixSeed(hash, r.sdcEvents);
                hash = util::mixSeed(hash, r.correctedErrors);
                hash = util::mixSeed(hash, r.uncorrectedErrors);
                hash = util::mixSeed(
                    hash, static_cast<uint64_t>(r.systemCrashed) |
                              static_cast<uint64_t>(r.applicationCrashed)
                                  << 1 |
                              static_cast<uint64_t>(r.outputMatches)
                                  << 2);
                for (const uint64_t counter : r.counters)
                    hash = util::mixSeed(hash, counter);
            }
        }
    }
    record.value("sim.core.runs", static_cast<double>(runs));
    record.value("sim.core.epochs", static_cast<double>(epochs));
    record.value("sim.core.ns_per_epoch",
                 epochs ? total_ns / static_cast<double>(epochs) : 0.0);
    record.text("sim.core.result_hash", hex(hash));
    if (!options.expectKernelHash.empty())
        record.check("kernel_pass.pinned_hash",
                     hex(hash) == options.expectKernelHash,
                     "kernel pass hash " + hex(hash) +
                         " differs from the pinned " +
                         options.expectKernelHash);
}

void
cachePass(const Options &options, Record &record)
{
    const sim::XGene2Params params;
    const CoreId core = 0;
    const PmdId pmd = params.pmdOfCore(core);
    const auto suite = wl::headlineSuite();

    double data_ns = 0.0;
    double instr_ns = 0.0;
    uint64_t data_accesses = 0;
    uint64_t instr_fetches = 0;
    sim::CacheStats l1d, l2, l3;
    std::vector<uint64_t> data_addrs(kCacheAccesses);
    std::vector<uint8_t> writes(kCacheAccesses);
    std::vector<uint64_t> instr_addrs(kCacheAccesses);
    for (size_t i = 0; i < suite.size(); ++i) {
        const wl::WorkloadProfile &workload = suite[i];
        wl::AddressStream data(
            static_cast<uint64_t>(workload.workingSetKb * 1024.0),
            workload.spatialLocality, workload.temporalLocality,
            util::mixSeed(options.runSeed, 2 * i));
        wl::AddressStream instr(
            static_cast<uint64_t>(workload.instrFootprintKb * 1024.0),
            0.95, 0.6, util::mixSeed(options.runSeed, 2 * i + 1));
        util::Rng store_rng(util::mixSeed(options.runSeed, 1000 + i));
        const double store_frac =
            workload.memAccessFrac() > 0.0
                ? workload.mix.store / workload.memAccessFrac()
                : 0.0;
        for (uint32_t s = 0; s < kCacheAccesses; ++s) {
            data_addrs[s] = data.next();
            writes[s] = store_rng.bernoulli(store_frac) ? 1 : 0;
            instr_addrs[s] = instr.next();
        }

        // Batches of the kernel's default per-epoch sample counts.
        sim::CacheHierarchy caches(params);
        const sim::ExecutionConfig defaults;
        auto begin = SteadyClock::now();
        for (uint32_t s = 0; s < kCacheAccesses;
             s += defaults.dataSamplesPerEpoch)
            (void)caches.dataAccessBatch(
                core, data_addrs.data() + s, writes.data() + s,
                std::min(defaults.dataSamplesPerEpoch,
                         kCacheAccesses - s));
        data_ns += secondsSince(begin) * 1e9;
        begin = SteadyClock::now();
        for (uint32_t s = 0; s < kCacheAccesses;
             s += defaults.instrSamplesPerEpoch)
            (void)caches.instrFetchBatch(
                core, instr_addrs.data() + s,
                std::min(defaults.instrSamplesPerEpoch,
                         kCacheAccesses - s));
        instr_ns += secondsSince(begin) * 1e9;
        data_accesses += kCacheAccesses;
        instr_fetches += kCacheAccesses;

        const auto add = [](sim::CacheStats &sum,
                            const sim::CacheStats &s) {
            sum.accesses += s.accesses;
            sum.misses += s.misses;
        };
        add(l1d, caches.l1d(core).stats());
        add(l2, caches.l2(pmd).stats());
        add(l3, caches.l3().stats());
    }
    const auto ratio = [](const sim::CacheStats &s) {
        return s.accesses ? static_cast<double>(s.misses) /
                                static_cast<double>(s.accesses)
                          : 0.0;
    };
    record.value("sim.cache.data_ns_per_access",
                 data_ns / static_cast<double>(data_accesses));
    record.value("sim.cache.instr_ns_per_fetch",
                 instr_ns / static_cast<double>(instr_fetches));
    record.value("sim.cache.l1d_miss_ratio", ratio(l1d));
    record.value("sim.cache.l2_miss_ratio", ratio(l2));
    record.value("sim.cache.l3_miss_ratio", ratio(l3));
}

void
campaignPass(const Options &options, Record &record)
{
    const auto suite = wl::headlineSuite();
    const sim::Platform tmpl(sim::XGene2Params{}, sim::ChipCorner::TTT,
                             1);
    util::Rng pick(util::mixSeed(options.runSeed, 0xCA4Bu));
    uint64_t campaigns = 0;
    uint64_t runs = 0;
    uint64_t abnormal = 0;
    bool classified_equal = true;
    for (const ChipRef &chip : options.fleetChips) {
        const auto prototype =
            tmpl.freshReplica(chip.corner, chip.serial);
        for (int c = 0; c < kCampaignCellsPerChip; ++c) {
            const auto &workload = suite.at(static_cast<size_t>(
                pick.uniformInt(0, static_cast<int64_t>(suite.size()) -
                                       1)));
            const auto core =
                static_cast<CoreId>(pick.uniformInt(0, 7));
            const auto replica = prototype->freshReplica();
            CampaignRunner runner(replica.get());
            for (int rep = 0; rep < kCampaignsPerCell; ++rep) {
                CampaignConfig config;
                config.workload = workload;
                config.core = core;
                config.frequency = 2400;
                config.startVoltage = kSweepStart;
                config.endVoltage = kSweepEnd;
                config.campaignIndex = static_cast<uint32_t>(rep);
                config.maxEpochs = kMaxEpochs;
                const auto begin = SteadyClock::now();
                const CampaignResult result = runner.run(config);
                record.sample("core.campaign.ms",
                              secondsSince(begin) * 1e3);
                ++campaigns;
                for (size_t i = 0; i < result.records.size(); ++i) {
                    const ClassifiedRun run = classifyRunRecord(
                        result.records[i].key, result.records[i].run);
                    classified_equal &=
                        i < result.runs.size() && run == result.runs[i];
                    abnormal += run.effects.normal() ? 0 : 1;
                    ++runs;
                }
            }
        }
    }
    record.value("core.campaign.runs_per_campaign",
                 campaigns ? static_cast<double>(runs) /
                                 static_cast<double>(campaigns)
                           : 0.0);
    record.value("core.campaign.abnormal_ratio",
                 runs ? static_cast<double>(abnormal) /
                            static_cast<double>(runs)
                      : 0.0);
    record.check("campaign_pass.classifier_matches_campaign",
                 classified_equal,
                 "classifyRunRecord disagrees with a campaign's "
                 "classified runs");
}

} // namespace

void
runSimPasses(const Options &options, Record &record)
{
    kernelPass(options, record);
    cachePass(options, record);
    campaignPass(options, record);
}

void
runLedgerPass(const std::string &cache_path,
              const std::string &fresh_path, Record &record)
{
    std::vector<RunLedger::Entry> entries;
    for (int rep = 0; rep < kLedgerReps; ++rep) {
        const auto begin = SteadyClock::now();
        RunLedger ledger(cache_path, "cellcache");
        ledger.open(kCellCacheHeader);
        record.sample("core.ledger.replay_ms",
                      secondsSince(begin) * 1e3);
        entries = ledger.entries();
    }

    for (int rep = 0; rep < kLedgerReps; ++rep) {
        std::map<uint64_t, LedgerView> views;
        const auto begin = SteadyClock::now();
        for (const RunLedger::Entry &entry : entries)
            views[entry.cell.chip.key()].addAll(entry.cell.runs);
        for (const auto &[chip, view] : views)
            view.deriveAll();
        record.sample("core.ledger.derive_ms",
                      secondsSince(begin) * 1e3);
    }

    for (int rep = 0; rep < kLedgerReps; ++rep) {
        removeFile(fresh_path);
        RunLedger out(fresh_path, "cellcache");
        out.open(kCellCacheHeader);
        const auto begin = SteadyClock::now();
        for (const RunLedger::Entry &entry : entries)
            out.append(entry.configHash, entry.cell);
        out.flush();
        const double seconds = secondsSince(begin);
        if (!entries.empty())
            record.sample("core.ledger.append_us_per_cell",
                          seconds * 1e6 /
                              static_cast<double>(entries.size()));
    }
    RunLedger reread(fresh_path, "cellcache");
    reread.open(kCellCacheHeader);
    record.check("ledger_pass.append_replays_all_cells",
                 reread.size() == entries.size(),
                 std::to_string(reread.size()) + " of " +
                     std::to_string(entries.size()) +
                     " appended cells replayed");
    record.value("core.ledger.file_bytes",
                 static_cast<double>(fileBytes(cache_path)));
}

} // namespace perfbench
