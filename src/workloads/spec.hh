/**
 * @file
 * The SPEC CPU2006-like workload suite.
 *
 * Profiles are synthetic but calibrated: the 10 headline benchmarks
 * of the paper's Figures 3-5 carry micro-architectural parameters
 * tuned so the simulated characterization lands in the paper's Vmin
 * bands (TTT 860-885 mV on the most robust core at 2.4 GHz, etc.).
 * The full suite provides 26 benchmarks with input datasets for a
 * total of 40 samples, matching the population used for the paper's
 * Vmin prediction study (section 4.3.1).
 */

#ifndef VMARGIN_WORKLOADS_SPEC_HH
#define VMARGIN_WORKLOADS_SPEC_HH

#include <string>
#include <vector>

#include "profile.hh"

namespace vmargin::wl
{

/**
 * The 10 benchmarks characterized in Figures 3-5:
 * bwaves, cactusADM, dealII, gromacs, leslie3d, mcf, milc, namd,
 * soplex, zeusmp (ref datasets).
 */
std::vector<WorkloadProfile> headlineSuite();

/**
 * The full prediction population: 26 benchmarks x input datasets =
 * 40 samples (the paper's 29-benchmark suite minus the 3 that could
 * not run).
 */
std::vector<WorkloadProfile> fullSuite();

/**
 * Find a profile by "name" or "name/dataset" in the full suite.
 * Fatal (user error) when the workload does not exist. The suite is
 * built once per process; the reference stays valid for the life of
 * the program.
 */
const WorkloadProfile &findWorkload(const std::string &id);

/** Names (no datasets) of every benchmark in the full suite. */
std::vector<std::string> benchmarkNames();

} // namespace vmargin::wl

#endif // VMARGIN_WORKLOADS_SPEC_HH
