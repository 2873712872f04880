#include "core.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/logging.hh"
#include "util/scale.hh"

namespace vmargin::sim
{

namespace
{

/** Run-to-run threshold jitter (mV, one sigma) per effect class. */
constexpr double kSigmaSdc = 2.5;
constexpr double kSigmaCe = 2.5;
constexpr double kSigmaUe = 3.0;
constexpr double kSigmaAc = 4.5;
constexpr double kSigmaSc = 1.2;

/** Timing-margin loss per degree C above the 43 C setpoint. */
constexpr double kTempSlopeMvPerC = 0.45;

/** Depth below a jittered threshold, in millivolts (>= 0). */
double
depthBelow(double threshold, MilliVolt v)
{
    return std::max(0.0, threshold - static_cast<double>(v));
}

/** One run's jittered failure thresholds (mV) per effect class. */
struct Thresholds
{
    double sdc, ce, ue, ac, sc;

    /** Every threshold raised by one epoch's @p droop_mv. */
    Thresholds raisedBy(double droop_mv) const
    {
        return {sdc + droop_mv, ce + droop_mv, ue + droop_mv,
                ac + droop_mv, sc + droop_mv};
    }

    /** True when supply @p v sits at or below any threshold: the
     *  comparisons injectFaults() makes before each of its draws. */
    bool reachedBy(MilliVolt v) const
    {
        const double supply = static_cast<double>(v);
        return supply <= sdc || supply <= ce || supply <= ue ||
               supply <= ac || supply <= sc;
    }
};

/**
 * Per-run jittered failure thresholds (run-to-run variation of real
 * silicon under fixed conditions). Heat eats timing margin: above
 * the 43 C calibration point every threshold moves up.
 */
Thresholds
drawThresholds(const OnsetSet &onsets, Celsius temperature,
               util::Rng &fault_rng)
{
    const double heat = kTempSlopeMvPerC * (temperature - 43.0);
    Thresholds t;
    t.sdc = onsets.sdc + heat + fault_rng.gaussian(0, kSigmaSdc);
    t.ce = onsets.ce + heat + fault_rng.gaussian(0, kSigmaCe);
    t.ue = onsets.ue + heat + fault_rng.gaussian(0, kSigmaUe);
    t.ac = onsets.ac + heat + fault_rng.gaussian(0, kSigmaAc);
    t.sc = onsets.sc + heat + fault_rng.gaussian(0, kSigmaSc);
    return t;
}

/**
 * Fault step of one epoch at supply @p v: inject every effect whose
 * threshold, raised by this epoch's droop (@p raised), the supply
 * sits at or below. Draws from @p fault_rng only when
 * raised.reachedBy(v). Returns true when a crash ended the run.
 */
bool
injectFaults(CoreId core, const Thresholds &raised, MilliVolt v,
             uint32_t epoch, util::Rng &fault_rng, RunResult &result)
{
    // Corrected errors: ECC events on the L2/L3 access paths.
    if (static_cast<double>(v) <= raised.ce) {
        const double depth = depthBelow(raised.ce, v);
        const uint64_t events =
            1 + fault_rng.poisson(0.6 * (1.0 + 0.4 * depth));
        result.correctedErrors += events;
        ErrorRecord record;
        record.kind = ErrorKind::Corrected;
        record.core = core;
        record.epoch = epoch;
        record.count = events;
        const double where = fault_rng.uniform();
        record.site = where < 0.60   ? ErrorSite::L2Cache
                      : where < 0.90 ? ErrorSite::L3Cache
                      : where < 0.98 ? ErrorSite::L1Cache
                                     : ErrorSite::Dram;
        result.errors.push_back(record);
    }
    // Uncorrected (but detected) errors.
    if (static_cast<double>(v) <= raised.ue) {
        const double depth = depthBelow(raised.ue, v);
        const uint64_t events =
            fault_rng.poisson(0.10 * (1.0 + 0.3 * depth));
        if (events) {
            result.uncorrectedErrors += events;
            ErrorRecord record;
            record.kind = ErrorKind::Uncorrected;
            record.core = core;
            record.epoch = epoch;
            record.count = events;
            record.site = fault_rng.bernoulli(0.7) ? ErrorSite::L2Cache
                                                   : ErrorSite::L3Cache;
            result.errors.push_back(record);
        }
    }
    // Silent data corruption from datapath timing failures.
    if (static_cast<double>(v) <= raised.sdc) {
        const double depth = depthBelow(raised.sdc, v);
        result.sdcEvents +=
            fault_rng.poisson(0.30 * (1.0 + 0.5 * depth));
    }
    // System crash: the machine goes unresponsive. Checked before
    // the application-crash draw — deep undervolt hangs the whole
    // machine faster than it can kill one process.
    if (static_cast<double>(v) <= raised.sc) {
        const double depth = depthBelow(raised.sc, v);
        const double p = std::min(1.0, 0.25 * (1.0 + 0.8 * depth));
        if (fault_rng.bernoulli(p)) {
            result.systemCrashed = true;
            return true;
        }
    }
    // Application crash: control-flow corruption. Capped well below
    // certainty so the system-crash path still dominates at depth.
    if (static_cast<double>(v) <= raised.ac) {
        const double depth = depthBelow(raised.ac, v);
        const double p = std::min(0.45, 0.08 * (1.0 + 0.6 * depth));
        if (fault_rng.bernoulli(p)) {
            result.applicationCrashed = true;
            result.exitCode = 139; // SIGSEGV-style death
            return true;
        }
    }
    return false;
}

/** One epoch's PMU deltas. They land in a local flat array and fold
 *  into the PMU in one accumulate pass — one bounds check per epoch
 *  instead of one per event. */
struct PmuDelta
{
    PmuSnapshot counts{};

    void operator()(PmuEvent e, uint64_t n)
    {
        counts[static_cast<size_t>(e)] += n;
    }
};

/** A derived counter as a fixed fraction of another. */
uint64_t
frac(uint64_t n, double f)
{
    return util::scaleCount(n, f);
}

/** Sampled miss and writeback counts of one epoch, scaled up to the
 *  epoch's true traffic. */
struct EpochMisses
{
    uint64_t l1dMisses = 0;
    uint64_t l1dWritebacks = 0;
    uint64_t l2Misses = 0;
    uint64_t l2Writebacks = 0;
    uint64_t l3Misses = 0;
    uint64_t l1iMisses = 0;
    uint64_t l2iMisses = 0;
};

/** Counters that follow from the epoch's activity alone: retirement,
 *  speculation, branches, stalls, exceptions, unaligned accesses and
 *  TLBs. */
void
addActivityEvents(PmuDelta &add, const wl::EpochActivity &act)
{
    using E = PmuEvent;
    const uint64_t mem = act.loads + act.stores;

    // ---- retirement / speculation -------------------------------
    add(E::INST_RETIRED, act.instructions);
    add(E::INST_SPEC, frac(act.instructions, 1.15));
    add(E::CPU_CYCLES, act.cycles);
    add(E::LD_RETIRED, act.loads);
    add(E::ST_RETIRED, act.stores);
    add(E::LD_SPEC, frac(act.loads, 1.12));
    add(E::ST_SPEC, frac(act.stores, 1.06));
    add(E::LDST_SPEC, frac(mem, 1.10));
    add(E::DP_SPEC, frac(act.aluOps, 1.10));
    add(E::VFP_SPEC, frac(act.fpuOps, 1.08));
    add(E::ASE_SPEC, frac(act.fpuOps, 0.30));
    add(E::MEM_ACCESS, mem);
    add(E::MEM_ACCESS_RD, act.loads);
    add(E::MEM_ACCESS_WR, act.stores);

    // ---- branches -----------------------------------------------
    add(E::BR_RETIRED, act.branches);
    add(E::BR_PRED, act.branches - act.branchMispredicts);
    add(E::BR_MIS_PRED, act.branchMispredicts);
    add(E::BR_MIS_PRED_RETIRED, frac(act.branchMispredicts, 0.92));
    add(E::BTB_MIS_PRED, act.btbMisses);
    add(E::BR_COND_INDIRECT, frac(act.branches, 0.90));
    add(E::BR_IMMED_RETIRED, frac(act.branches, 0.78));
    add(E::BR_RETURN_RETIRED, frac(act.branches, 0.08));
    add(E::BR_IMMED_SPEC, frac(act.branches, 0.86));
    add(E::BR_RETURN_SPEC, frac(act.branches, 0.09));
    add(E::BR_INDIRECT_SPEC, frac(act.branches, 0.12));
    add(E::PC_WRITE_RETIRED, act.branches);
    add(E::PC_WRITE_SPEC, frac(act.branches, 1.10));

    // ---- stalls -------------------------------------------------
    add(E::DISPATCH_STALL_CYCLES, act.dispatchStallCycles);
    add(E::STALL_FRONTEND, frac(act.dispatchStallCycles, 0.35));
    add(E::STALL_BACKEND, frac(act.dispatchStallCycles, 0.65));

    // ---- exceptions / system ------------------------------------
    add(E::EXC_TAKEN, act.exceptions);
    add(E::EXC_RETURN, act.exceptions);
    add(E::EXC_SVC, frac(act.exceptions, 0.60));
    add(E::EXC_IRQ, frac(act.exceptions, 0.28));
    add(E::EXC_DABORT, frac(act.exceptions, 0.05));
    add(E::EXC_PABORT, frac(act.exceptions, 0.02));
    add(E::EXC_UNDEF, frac(act.exceptions, 0.01));
    add(E::EXC_FIQ, frac(act.exceptions, 0.02));
    add(E::CID_WRITE_RETIRED, act.exceptions / 50);
    add(E::TTBR_WRITE_RETIRED, act.exceptions / 80);
    add(E::SW_INCR, 0);
    add(E::CRYPTO_SPEC, 0);
    add(E::ISB_SPEC, frac(act.exceptions, 2.0));
    add(E::DSB_SPEC, frac(mem, 0.0004));
    add(E::DMB_SPEC, frac(mem, 0.0008));
    add(E::LDREX_SPEC, frac(mem, 0.0002));
    add(E::STREX_PASS_SPEC, frac(mem, 0.00019));
    add(E::STREX_FAIL_SPEC, frac(mem, 0.00001));

    // ---- unaligned ----------------------------------------------
    add(E::UNALIGNED_LDST_RETIRED, act.unalignedAccesses);
    add(E::UNALIGNED_LD_SPEC, frac(act.unalignedAccesses, 0.7));
    add(E::UNALIGNED_ST_SPEC, frac(act.unalignedAccesses, 0.3));
    add(E::UNALIGNED_LDST_SPEC, act.unalignedAccesses);

    // ---- TLBs ---------------------------------------------------
    add(E::L1D_TLB, mem);
    add(E::L1D_TLB_REFILL, act.tlbRefills);
    add(E::L1D_TLB_REFILL_RD, frac(act.tlbRefills, 0.7));
    add(E::L1D_TLB_REFILL_WR, frac(act.tlbRefills, 0.3));
    add(E::L1I_TLB, act.instructions / 4);
    add(E::L1I_TLB_REFILL, frac(act.tlbRefills, 0.08));
    add(E::L2D_TLB, act.tlbRefills);
    add(E::L2D_TLB_REFILL, act.pageWalks);
    add(E::L2I_TLB, frac(act.tlbRefills, 0.08));
    add(E::L2I_TLB_REFILL, frac(act.pageWalks, 0.05));
    add(E::DTLB_WALK, act.pageWalks);
    add(E::ITLB_WALK, frac(act.pageWalks, 0.05));
}

/** Counters of the cache hierarchy and the bus, from the epoch's
 *  activity and its scaled cache misses. */
void
addCacheEvents(PmuDelta &add, const wl::EpochActivity &act,
               const wl::WorkloadProfile &workload,
               const EpochMisses &m)
{
    using E = PmuEvent;
    const uint64_t mem = act.loads + act.stores;

    // ---- data-side cache hierarchy ------------------------------
    const uint64_t store_share =
        frac(mem, workload.mix.store /
                      std::max(1e-9, workload.memAccessFrac()));
    add(E::L1D_CACHE, mem);
    add(E::L1D_CACHE_RD, act.loads);
    add(E::L1D_CACHE_WR, act.stores);
    add(E::L1D_CACHE_REFILL, m.l1dMisses);
    add(E::L1D_CACHE_REFILL_RD,
        frac(m.l1dMisses, mem ? static_cast<double>(act.loads) /
                                    static_cast<double>(mem)
                              : 0.0));
    add(E::L1D_CACHE_REFILL_WR,
        frac(m.l1dMisses, mem ? static_cast<double>(store_share) /
                                    static_cast<double>(mem)
                              : 0.0));
    add(E::L1D_CACHE_ALLOCATE, m.l1dMisses);
    add(E::L1D_CACHE_WB, m.l1dWritebacks);
    add(E::L1D_CACHE_WB_VICTIM, m.l1dWritebacks);
    add(E::L1D_CACHE_WB_CLEAN, frac(m.l1dMisses, 0.05));
    add(E::L1D_CACHE_INVAL, 0);

    const uint64_t l2_traffic = m.l1dMisses + m.l1dWritebacks;
    add(E::L2D_CACHE, l2_traffic);
    add(E::L2D_CACHE_RD, m.l1dMisses);
    add(E::L2D_CACHE_WR, m.l1dWritebacks);
    add(E::L2D_CACHE_REFILL, m.l2Misses);
    add(E::L2D_CACHE_REFILL_RD, frac(m.l2Misses, 0.8));
    add(E::L2D_CACHE_REFILL_WR, frac(m.l2Misses, 0.2));
    add(E::L2D_CACHE_ALLOCATE, m.l2Misses);
    add(E::L2D_CACHE_WB, m.l2Writebacks);
    add(E::L2D_CACHE_WB_VICTIM, m.l2Writebacks);
    add(E::L2D_CACHE_WB_CLEAN, frac(m.l2Misses, 0.04));
    add(E::L2D_CACHE_INVAL, 0);

    add(E::L3D_CACHE, m.l2Misses + m.l2Writebacks);
    add(E::L3D_CACHE_REFILL, m.l3Misses);
    add(E::L3D_CACHE_ALLOCATE, m.l3Misses);
    add(E::L3D_CACHE_WB, frac(m.l3Misses, 0.4));
    add(E::LL_CACHE_RD, frac(m.l2Misses, 0.8));
    add(E::LL_CACHE_MISS_RD, frac(m.l3Misses, 0.8));

    // ---- instruction side ---------------------------------------
    add(E::L1I_CACHE, act.instructions / 4); // fetch groups
    add(E::L1I_CACHE_REFILL, m.l1iMisses);
    add(E::L2I_CACHE, m.l1iMisses);
    add(E::L2I_CACHE_REFILL, m.l2iMisses);

    // ---- bus / system -------------------------------------------
    const uint64_t bus = m.l3Misses + frac(m.l3Misses, 0.4);
    add(E::BUS_ACCESS, bus);
    add(E::BUS_ACCESS_RD, m.l3Misses);
    add(E::BUS_ACCESS_WR, frac(m.l3Misses, 0.4));
    add(E::BUS_CYCLES, act.cycles / 2);
}

} // namespace

Core::Core(CoreId id, const XGene2Params &params,
           CacheHierarchy *caches)
    : id_(id), params_(params), caches_(caches)
{
    params_.validate();
    if (id_ < 0 || id_ >= params_.numCores)
        util::panicf("Core: id ", id_, " out of range");
    if (!caches_)
        util::panicf("Core ", id_, ": null cache hierarchy");
}

/** The sampled address streams that drive the cache model. They
 *  draw from their own seeded RNGs, so a measurement run can skip
 *  them without moving any other stream. */
struct Core::CounterStreams
{
    CounterStreams(const wl::WorkloadProfile &workload,
                   util::Rng seed_rng)
        : data(static_cast<uint64_t>(workload.workingSetKb * 1024.0),
               workload.spatialLocality, workload.temporalLocality,
               seed_rng.next()),
          instr(static_cast<uint64_t>(workload.instrFootprintKb *
                                      1024.0),
                0.95, 0.6, seed_rng.next()),
          storeFrac(workload.memAccessFrac() > 0.0
                        ? workload.mix.store / workload.memAccessFrac()
                        : 0.0)
    {
    }

    wl::AddressStream data;
    wl::AddressStream instr;
    double storeFrac;
};

RunResult
Core::run(const wl::WorkloadProfile &workload, const OnsetSet &onsets,
          const ExecutionConfig &config)
{
    return execute(workload, onsets, config, true);
}

RunResult
Core::measure(const wl::WorkloadProfile &workload,
              const OnsetSet &onsets, const ExecutionConfig &config)
{
    return execute(workload, onsets, config, false);
}

RunResult
Core::execute(const wl::WorkloadProfile &workload,
              const OnsetSet &onsets, const ExecutionConfig &config,
              bool count)
{
    workload.validate();

    util::Rng fault_rng(util::mixSeed(config.seed, 0xFA17ULL));
    wl::ActivityGenerator generator(
        workload, util::mixSeed(config.seed, 0xAC71ULL));
    const Thresholds thresholds =
        drawThresholds(onsets, config.temperature, fault_rng);

    const uint32_t epochs = config.maxEpochs
                                ? std::min(config.maxEpochs,
                                           workload.epochs)
                                : workload.epochs;

    std::optional<CounterStreams> streams;
    if (count) {
        pmu_.reset();
        streams.emplace(workload,
                        util::Rng(util::mixSeed(config.seed, 0xADD2ULL)));
        writeScratch_.resize(config.dataSamplesPerEpoch);
        addrScratch_.resize(std::max(config.dataSamplesPerEpoch,
                                     config.instrSamplesPerEpoch));
    }

    RunResult result;
    result.voltage = config.voltage;
    result.frequency = config.frequency;

    uint64_t total_instr = 0;
    uint64_t total_cycles = 0;
    double prev_ipc = -1.0;

    // Write-intent draws a measurement run owes fault_rng: made only
    // before a fault draw that would see their position.
    uint64_t owed_draws = 0;

    for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
        const wl::EpochActivity act =
            count ? generator.epoch(epoch) : generator.timing(epoch);
        total_instr += act.instructions;
        total_cycles += act.cycles;

        // di/dt droop: an abrupt activity swing between epochs digs
        // into the timing margin for the epoch where it happens.
        double droop_mv = 0.0;
        if (config.droopSensitivityMv > 0.0 && prev_ipc >= 0.0) {
            const double swing = std::fabs(act.ipc() - prev_ipc) /
                                 workload.ipcNominal;
            droop_mv = config.droopSensitivityMv * swing;
        }
        prev_ipc = act.ipc();

        if (streams) {
            countEpoch(act, workload, config, *streams, fault_rng);
        } else {
            // Measurement run: nothing reads the cache walk, so skip
            // it and the PMU update. It still owes fault_rng the
            // write-intent draws (one next() per bernoulli) so every
            // fault draw sees the same position.
            owed_draws += config.dataSamplesPerEpoch;
        }
        result.epochsExecuted = epoch + 1;

        // injectFaults() draws nothing unless a threshold is reached.
        // Only then are the owed draws made; a run that never gets
        // there drops them along with its fault_rng.
        const Thresholds raised = thresholds.raisedBy(droop_mv);
        if (!raised.reachedBy(config.voltage))
            continue;
        for (; owed_draws > 0; --owed_draws)
            (void)fault_rng.next();
        if (injectFaults(id_, raised, config.voltage, epoch, fault_rng,
                         result))
            break;
    }

    finish(workload, config, count, total_instr, total_cycles, result);
    return result;
}

void
Core::countEpoch(const wl::EpochActivity &act,
                 const wl::WorkloadProfile &workload,
                 const ExecutionConfig &config, CounterStreams &streams,
                 util::Rng &fault_rng)
{
    const uint32_t data_samples = config.dataSamplesPerEpoch;
    const uint32_t instr_samples = config.instrSamplesPerEpoch;

    // The write-intent draws and the address draws come from
    // independent RNG streams, so drawing each stream into its
    // scratch buffer up front yields exactly the per-stream
    // sequences of the old interleaved loop — and lets the
    // hierarchy walk the whole sample array in one batch.
    for (uint32_t s = 0; s < data_samples; ++s)
        writeScratch_[s] =
            fault_rng.bernoulli(streams.storeFrac) ? 1 : 0;
    for (uint32_t s = 0; s < data_samples; ++s)
        addrScratch_[s] = streams.data.next();
    const DataBatchCounts data = caches_->dataAccessBatch(
        id_, addrScratch_.data(), writeScratch_.data(), data_samples);
    for (uint32_t s = 0; s < instr_samples; ++s)
        addrScratch_[s] = streams.instr.next();
    const InstrBatchCounts instr = caches_->instrFetchBatch(
        id_, addrScratch_.data(), instr_samples);

    // Scale sampled miss counts up to the epoch's true traffic.
    const double mem_ops = static_cast<double>(act.loads + act.stores);
    const double dscale = data_samples ? mem_ops / data_samples : 0.0;
    const double iscale =
        instr_samples ? static_cast<double>(act.instructions) / 4.0 /
                            instr_samples
                      : 0.0;
    EpochMisses misses;
    misses.l1dMisses = util::scaleCount(data.l1Miss, dscale);
    misses.l1dWritebacks = util::scaleCount(data.writebacksFromL1, dscale);
    misses.l2Misses = util::scaleCount(data.l2Miss, dscale);
    misses.l2Writebacks = util::scaleCount(data.writebacksFromL2, dscale);
    misses.l3Misses = util::scaleCount(data.l3Miss, dscale);
    misses.l1iMisses = util::scaleCount(instr.l1Miss, iscale);
    misses.l2iMisses = util::scaleCount(instr.l2Miss, iscale);

    PmuDelta add;
    addActivityEvents(add, act);
    addCacheEvents(add, act, workload, misses);
    pmu_.accumulate(add.counts);
}

void
Core::finish(const wl::WorkloadProfile &workload,
             const ExecutionConfig &config, bool count,
             uint64_t total_instr, uint64_t total_cycles,
             RunResult &result)
{
    if (count) {
        // Every corrected and uncorrected event is a memory error;
        // counted before a system crash wipes the run's error log.
        pmu_.add(PmuEvent::MEMORY_ERROR,
                 result.correctedErrors + result.uncorrectedErrors);
        result.counters = pmu_.snapshot();
    }

    if (result.systemCrashed) {
        // A hung machine takes the run's observability with it: the
        // output never materializes and the kernel-side EDAC state
        // is lost across the power cycle, so the watchdog's log
        // records nothing but the crash itself (the paper's Figure 5
        // shows exactly 16.0 at deep undervolt for this reason).
        result.sdcEvents = 0;
        result.correctedErrors = 0;
        result.uncorrectedErrors = 0;
        result.errors.clear();
    }

    result.completed =
        !result.systemCrashed && !result.applicationCrashed;
    // A run that completed with datapath corruption produces wrong
    // output (checksum mismatch vs the golden run).
    result.outputMatches = result.completed && result.sdcEvents == 0;

    result.avgIpc = total_cycles
                        ? static_cast<double>(total_instr) /
                              static_cast<double>(total_cycles)
                        : 0.0;
    result.simulatedSeconds =
        static_cast<double>(total_cycles) /
        (static_cast<double>(config.frequency) * 1e6);
    const double issue_util =
        result.avgIpc / static_cast<double>(params_.issueWidth);
    result.activityFactor = std::clamp(
        0.30 + 0.55 * issue_util + 0.15 * workload.memAccessFrac(),
        0.0, 1.0);
}

} // namespace vmargin::sim
