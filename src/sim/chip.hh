/**
 * @file
 * One fabricated X-Gene 2 chip: four PMDs, the shared PMD voltage
 * domain, the PCP/SoC domain with the L3, the cache hierarchy, the
 * EDAC log and the chip's own process-variation map.
 */

#ifndef VMARGIN_SIM_CHIP_HH
#define VMARGIN_SIM_CHIP_HH

#include <memory>
#include <string>
#include <vector>

#include "cache_hierarchy.hh"
#include "edac.hh"
#include "margin_model.hh"
#include "param.hh"
#include "pmd.hh"
#include "process_variation.hh"
#include "voltage_domain.hh"

namespace vmargin::sim
{

/** A complete X-Gene 2 chip instance. */
class Chip
{
  public:
    /**
     * @param params platform parameters
     * @param corner process corner of this part
     * @param serial chip serial number (seeds variation)
     * @param enhancements optional section-6 design variants
     */
    Chip(const XGene2Params &params, ChipCorner corner,
         uint32_t serial, DesignEnhancements enhancements = {});

    const XGene2Params &params() const { return params_; }
    ChipCorner corner() const { return variation_.corner(); }
    uint32_t serial() const { return variation_.serial(); }

    /** Chip name like "TTT#1". */
    std::string name() const;

    VoltageDomain &pmdDomain() { return pmdDomain_; }
    const VoltageDomain &pmdDomain() const { return pmdDomain_; }
    VoltageDomain &socDomain() { return socDomain_; }
    const VoltageDomain &socDomain() const { return socDomain_; }

    Pmd &pmd(PmdId id);
    const Pmd &pmd(PmdId id) const;

    /** Core by global id (routed through its PMD). */
    Core &core(CoreId id);

    CacheHierarchy &caches() { return *caches_; }
    const CacheHierarchy &caches() const { return *caches_; }

    EdacLog &edac() { return edac_; }
    const EdacLog &edac() const { return edac_; }

    const ProcessVariation &variation() const { return variation_; }
    const MarginModel &margins() const { return margins_; }

    /**
     * Measurement run of @p workload on @p core under the chip's
     * *current* voltage and frequency settings: outcome, errors and
     * observables, without the cache and PMU model (counters stay
     * zero, see Core::measure()). EDAC records from the run are
     * appended to the chip log. Deterministic in @p run_seed.
     */
    RunResult runOnCore(CoreId core,
                        const wl::WorkloadProfile &workload,
                        Seed run_seed,
                        const ExecutionConfig &overrides = {});

    /** Profiling run: runOnCore() plus the cache and PMU model, so
     *  RunResult::counters holds the run's 101 PMU counters. */
    RunResult profileOnCore(CoreId core,
                            const wl::WorkloadProfile &workload,
                            Seed run_seed,
                            const ExecutionConfig &overrides = {});

    /**
     * Hard reset: domains to nominal, clocks to maximum, caches
     * invalidated, EDAC log cleared. What a power cycle does.
     */
    void reset();

  private:
    RunResult execute(CoreId core, const wl::WorkloadProfile &workload,
                      Seed run_seed, const ExecutionConfig &overrides,
                      bool profile);

    XGene2Params params_;
    ProcessVariation variation_;
    std::unique_ptr<CacheHierarchy> caches_;
    MarginModel margins_;
    VoltageDomain pmdDomain_;
    VoltageDomain socDomain_;
    std::vector<std::unique_ptr<Pmd>> pmds_;
    EdacLog edac_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CHIP_HH
