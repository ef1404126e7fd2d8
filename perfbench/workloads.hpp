// The benchmark's workloads and their seeded input generators.
// See README.md in this directory for why each workload exists and which
// layer each metric belongs to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

/// The "file:<root>/schemes/laderman_333_23.json" key of the file-loaded
/// Laderman <3,3,3;23> scheme.
std::string laderman_key(const std::string& root);

// --- sweep_grid ---------------------------------------------------------------

/// The timed grid: one SweepSpec per (scheme base, replacement policy),
/// in a seeded order.  Strassen and Laderman stay in separate specs
/// because a spec mixing bases aborts the whole sweep (README.md).
std::vector<fmm::sweep::SweepSpec> sweep_grid_specs(const std::string& laderman,
                                                    std::uint64_t seed);
/// The reduced grid whose 4-thread report must equal a 1-thread run.
std::vector<fmm::sweep::SweepSpec> sweep_reduced_specs(
    const std::string& laderman, std::uint64_t seed);

Outcome run_sweep_grid(const Options& options);

// --- fabric_coldstart -------------------------------------------------------------

/// Request bodies of session `index`: distinct cdag, liveness and bound
/// queries over the snapshot-backed schemes.
std::vector<std::string> fabric_session_bodies(std::uint64_t seed,
                                               std::size_t index);

Outcome run_fabric_coldstart(const Options& options);

}  // namespace perfbench
