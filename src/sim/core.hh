/**
 * @file
 * Core execution engine.
 *
 * A Core "runs" a workload profile epoch by epoch: the activity
 * generator supplies event counts, sampled address streams drive the
 * functional cache hierarchy, the PMU accumulates the 101 counters
 * (a measurement run skips the last two and draws only each
 * epoch's timing, see Core::measure()), and the fault layer
 * injects undervolting effects according to the margin model's
 * ground-truth onsets.
 *
 * Fault semantics per run: for every effect class the run draws a
 * jittered threshold around the onset (run-to-run non-determinism);
 * when the supply sits at or below a threshold the corresponding
 * effect manifests — SDC/CE/UE as event counts growing with depth,
 * AC/SC as a terminating event at a random epoch.
 */

#ifndef VMARGIN_SIM_CORE_HH
#define VMARGIN_SIM_CORE_HH

#include <cstdint>
#include <vector>

#include "cache_hierarchy.hh"
#include "clock.hh"
#include "edac.hh"
#include "margin_model.hh"
#include "param.hh"
#include "pmu.hh"
#include "util/rng.hh"
#include "util/types.hh"
#include "workloads/generator.hh"
#include "workloads/profile.hh"

namespace vmargin::sim
{

/** Knobs for one characterization run. */
struct ExecutionConfig
{
    MilliVolt voltage = 980;
    MegaHertz frequency = 2400;
    SpeedClass speedClass = SpeedClass::Full;
    Seed seed = 0; ///< per-run stream; fully determines the run

    /** 0 = use the profile's epoch count. */
    uint32_t maxEpochs = 0;

    /** Cache-model sampling density (accesses simulated per epoch;
     *  counters are scaled back up to the true totals). */
    uint32_t dataSamplesPerEpoch = 128;
    uint32_t instrSamplesPerEpoch = 48;

    /** Package temperature during the run. Timing margins shrink
     *  as silicon heats up (~0.45 mV per degree C above the paper's
     *  43 C stabilization point); the fan controller normally pins
     *  this, which is exactly why the paper controls it. */
    Celsius temperature = 43.0;

    /**
     * di/dt droop sensitivity (the voltage-noise mechanism of the
     * related work [4, 17, 28]): millivolts of timing margin lost
     * per unit of *relative* epoch-to-epoch IPC swing. 0 (default)
     * models the stiff power-delivery network the calibration
     * assumes; the ablation_droop bench sweeps it.
     */
    double droopSensitivityMv = 0.0;
};

/** Everything observed about one run. */
struct RunResult
{
    // -- outcome --------------------------------------------------
    bool systemCrashed = false;      ///< platform went unresponsive
    bool applicationCrashed = false; ///< process died (exit != 0)
    bool completed = false;          ///< ran to the final epoch
    bool outputMatches = true;       ///< checksum vs golden output
    int exitCode = 0;
    uint64_t sdcEvents = 0;
    uint64_t correctedErrors = 0;
    uint64_t uncorrectedErrors = 0;
    uint32_t epochsExecuted = 0;

    // -- observables ----------------------------------------------
    MilliVolt voltage = 0;
    MegaHertz frequency = 0;
    double simulatedSeconds = 0.0;
    double avgIpc = 0.0;
    /** Switching-activity proxy in [0, 1] for the power model. */
    double activityFactor = 0.0;
    /** All 101 PMU counters of a profiling run; all zero on a
     *  measurement run (see Core::measure()). */
    PmuSnapshot counters{};
    std::vector<ErrorRecord> errors;

    /** True when any abnormal effect was observed. */
    bool abnormal() const
    {
        return systemCrashed || applicationCrashed ||
               !outputMatches || correctedErrors > 0 ||
               uncorrectedErrors > 0;
    }
};

/** One ARMv8 core of the simulated chip. */
class Core
{
  public:
    /**
     * @param id core number (0..7)
     * @param params platform parameters
     * @param caches the chip's cache hierarchy (not owned)
     */
    Core(CoreId id, const XGene2Params &params,
         CacheHierarchy *caches);

    /**
     * Profiling run: execute @p workload under @p config with
     * ground-truth @p onsets, driving the sampled address streams
     * through the cache model and filling the 101 PMU counters.
     * Deterministic in config.seed.
     */
    RunResult run(const wl::WorkloadProfile &workload,
                  const OnsetSet &onsets,
                  const ExecutionConfig &config);

    /**
     * Measurement run: run() reduced to what the outcome reads.
     * RunResult::counters stays all zero; every other field is
     * bit-identical to run()'s for the same config. Per epoch it
     * computes only the instructions and cycles
     * (ActivityGenerator::timing()), the droop and, when the supply
     * reaches a threshold, the fault draws. Each skip is exact:
     *  - the other activity counts and the cache walk feed only the
     *    counters, and each epoch's activity and the address streams
     *    draw from their own seeded RNGs;
     *  - the one shared stream, fault_rng, owes dataSamplesPerEpoch
     *    draws per epoch in place of the write-intent draws it would
     *    have fed the walk. They are counted, and made just before
     *    the next fault draw so it sees the same position; a run
     *    whose supply never reaches a threshold drops them with its
     *    fault_rng, since nothing draws from it afterwards.
     *
     * The one thing a measurement run does not reproduce is the
     * cache contents it leaves behind: the hierarchy stays as the
     * run found it instead of warmed by its accesses. Only a later
     * profiling run on the same platform, with no power cycle in
     * between, could see that, and none happens: above the kernel,
     * Chip::runOnCore / Platform::runWorkload measure and
     * Chip::profileOnCore / Platform::profileWorkload profile, and
     * Profiler is the only production caller of the profiling entry
     * point. Campaigns measure every cell on its own freshReplica()
     * platform; the governor daemon settles its long-lived platform
     * (caches invalidated) every round and nothing profiles it
     * afterwards. The kernel benches call run() directly and keep
     * counting.
     */
    RunResult measure(const wl::WorkloadProfile &workload,
                      const OnsetSet &onsets,
                      const ExecutionConfig &config);

    CoreId id() const { return id_; }

  private:
    /** run() when @p count, measure() otherwise. */
    RunResult execute(const wl::WorkloadProfile &workload,
                      const OnsetSet &onsets,
                      const ExecutionConfig &config, bool count);

    /** The sampled address streams of a profiling run. */
    struct CounterStreams;

    /** Profiling step of one epoch: walk the caches with the sampled
     *  streams (drawing the write intents from @p fault_rng) and fold
     *  the epoch into the PMU. */
    void countEpoch(const wl::EpochActivity &act,
                    const wl::WorkloadProfile &workload,
                    const ExecutionConfig &config,
                    CounterStreams &streams, util::Rng &fault_rng);

    /** Fill the run-level observables (and, when @p count, the
     *  counters) once the epochs are done. */
    void finish(const wl::WorkloadProfile &workload,
                const ExecutionConfig &config, bool count,
                uint64_t total_instr, uint64_t total_cycles,
                RunResult &result);

    CoreId id_;
    XGene2Params params_;
    CacheHierarchy *caches_;
    Pmu pmu_;

    /** Per-epoch scratch buffers for the batched kernel: each RNG
     *  stream is drawn into its buffer up front (preserving the
     *  per-stream sequences), then the caches walk the whole sample
     *  array in one batch. Reused across epochs and runs. */
    std::vector<uint8_t> writeScratch_;
    std::vector<uint64_t> addrScratch_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CORE_HH
