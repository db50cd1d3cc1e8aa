#pragma once

// The benchmark's workloads and its known-failure probes.
//
// Every workload is a list of batch::RunCase cells, so the scale scenarios
// (one cell, timed through driver::run_simulation) and the sweep (a grid,
// timed through batch::Runner) share one description.  Why each workload
// exists, and which layers it exercises or bypasses, is recorded in
// BENCHMARK.json and perfbench/README.md.

#include <cstdint>
#include <string>
#include <vector>

#include "batch/sweep.hpp"

namespace perfbench {

/// Rollbacks per injected fault above which a run counts as failed (a
/// livelock).  The scale goldens show about 2 per fault and the sweep's
/// fault cells at most 7; the known livelocks exceed 10^5.
constexpr double kLivenessBound = 100.0;

struct Workload {
  std::string name;
  std::vector<hc3i::batch::RunCase> cases;
  /// True: timed through batch::Runner; false: one case timed through
  /// driver::run_simulation.
  bool sweep{false};
  /// Sweep only: worker threads of the timed runs (at most 2, so the
  /// benchmark fits a small shared box).
  std::size_t threads{1};
  /// Scale only: committed counter dump (file name under the golden
  /// directory) the run must match byte for byte at seed 1.
  std::string golden;
};

/// Build a workload's inputs from the benchmark seed: scale_plain,
/// scale_overlap_storage or sweep_small.  Throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// A named run that fails today for a known reason.  The correctness pass
/// runs every probe and reports its verdict; the probes are never timed.
struct Probe {
  std::string name;
  std::string known_failure;  ///< what fails today, and where it is tracked
  hc3i::batch::RunCase rc;
};

std::vector<Probe> known_failure_probes();

}  // namespace perfbench
