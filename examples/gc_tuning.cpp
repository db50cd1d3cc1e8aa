// Garbage-collection tuning — explores the trade-off the paper closes §5.4
// with: "A tradeoff has to be found between the frequency of garbage
// collection and the number of CLCs stored."  Runs the paper's reference
// workload at several GC periods and reports storage vs GC traffic, plus
// the safety check: a failure injected right after the last GC still
// recovers.
//
//   ./gc_tuning [--seed=1] [--msgs-1to0=103]

#include <cstdio>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double msgs = flags.get_double("msgs-1to0", 103.0);

  std::printf("GC period sweep on the paper's reference workload "
              "(cluster-1 -> cluster-0 messages: %.0f)\n\n", msgs);
  std::printf("%-10s %-10s %-14s %-16s %-18s %s\n", "period", "rounds",
              "max CLCs (c0)", "storage HW (c0)", "post-fault OK?",
              "retained at end");
  for (const int period_min : {30, 60, 120, 240, 0}) {
    driver::RunOptions opts;
    opts.spec.topology = config::paper_reference_topology();
    opts.spec.application = config::paper_reference_application(msgs);
    opts.spec.timers = config::paper_reference_timers(
        minutes(30), minutes(30),
        period_min == 0 ? SimTime::infinity() : minutes(period_min));
    opts.seed = seed;
    // Fault near the end of the run: every retained-CLC decision the GC
    // made must still admit a full recovery line.
    opts.campaign.kills.push_back({hours(9) + minutes(30), NodeId{17}});
    const auto r = driver::run_simulation(opts);
    std::printf("%-10s %-10llu %-14llu %-16s %-18s %llu / %llu\n",
                period_min == 0 ? "off" : (std::to_string(period_min) + "min").c_str(),
                static_cast<unsigned long long>(r.counter("gc.rounds")),
                static_cast<unsigned long long>(r.counter("store.max_clcs.c0")),
                format_bytes(r.counter("store.max_bytes.c0")).c_str(),
                r.violations.empty() ? "consistent" : "VIOLATIONS",
                static_cast<unsigned long long>(r.counter("store.final_clcs.c0")),
                static_cast<unsigned long long>(r.counter("store.final_clcs.c1")));
  }
  std::printf("\nEach retained CLC costs every node 2 local states (own part\n"
              "plus its neighbour's replica) — the paper's 63-CLC run kept\n"
              "126 states per node until the first GC reclaimed them.\n");
  return 0;
}
