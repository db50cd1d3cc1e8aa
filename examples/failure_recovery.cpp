// Failure-recovery walkthrough: reproduces the paper's §4 sample execution
// narrative on a live simulation — inter-cluster messages forcing CLCs,
// then a fault, the rollback-alert cascade and the logged-message replay —
// with protocol-level tracing enabled so every step is visible.
//
//   ./failure_recovery [--seed=1] [--quiet]

#include <cstdio>
#include <iostream>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "util/flags.hpp"

using namespace hc3i;

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);

  driver::RunOptions opts;
  if (!flags.get_bool("quiet", false)) {
    // The protocol trace goes to stderr.  Untie it from stdout so a trace
    // line does not flush the report text buffered ahead of it.
    std::cerr.tie(nullptr);
    opts.text_trace = &std::cerr;
  }
  // Three small clusters with a modest inter-cluster exchange pattern.
  opts.spec = config::small_test_spec(3, 4);
  opts.spec.application.total_time = hours(1);
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(10);
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Fault in cluster 1 mid-run — the paper's snapshot 1 -> 2 transition.
  opts.campaign.kills.push_back({minutes(35), NodeId{5}});

  std::printf("Simulating 1 h of a 3-cluster code-coupling run; node 5\n"
              "(cluster 1) fails at t=35min. Protocol trace follows.\n\n");
  const auto result = driver::run_simulation(opts);

  std::printf("\n--- outcome ---------------------------------------------\n");
  std::printf("failures injected        : %llu\n",
              static_cast<unsigned long long>(result.counter("fault.injected")));
  std::printf("cluster rollbacks        : %llu  (faulty cluster + cascades)\n",
              static_cast<unsigned long long>(result.counter("rollback.count")));
  std::printf("rollback alerts received : %llu\n",
              static_cast<unsigned long long>(result.counter("rollback.alerts")));
  std::printf("logged messages re-sent  : %llu\n",
              static_cast<unsigned long long>(result.counter("log.resent_msgs")));
  std::printf("stale messages discarded : %llu\n",
              static_cast<unsigned long long>(result.counter("cic.stale_dropped")));
  std::printf("work lost to the fault   : %.1f node-seconds\n",
              result.registry.summary("rollback.lost_work_s").sum());
  std::printf("consistency violations   : %zu (the ledger audited %llu\n"
              "                           send/delivery events end-to-end)\n",
              result.violations.size(),
              static_cast<unsigned long long>(result.counter("ledger.total_events")));
  return 0;
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
