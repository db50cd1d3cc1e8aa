// Protocol comparison on one command line — run the same workload and
// failure schedule under any of the five protocols and compare outcomes.
//
//   ./protocol_comparison [--protocol=hc3i|independent|global|hier|pessimistic]
//                         [--hours=2] [--mtbf-min=40] [--seed=1]

#include <cstdio>
#include <string>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "util/flags.hpp"

using namespace hc3i;

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 10);
  // At most a simulated year each, far from SimTime's nanosecond range.
  opts.spec.application.total_time = hours(flags.get_count("hours", 2, 8'760));
  opts.spec.topology.mtbf = minutes(flags.get_count("mtbf-min", 40, 525'600));
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(20);
  const std::string protocol = flags.get("protocol", "hc3i");
  const auto kind = driver::parse_protocol(protocol);
  if (!kind) {
    throw FlagError("unknown --protocol: " + protocol +
                    " (hc3i|independent|global|hier|pessimistic)");
  }
  opts.protocol = *kind;
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.auto_failures = true;

  const auto r = driver::run_simulation(opts);

  std::printf("protocol                 : %s\n",
              driver::to_string(opts.protocol).c_str());
  std::printf("application progress     : %llu work units\n",
              static_cast<unsigned long long>(r.total_progress));
  std::printf("checkpoints committed    : %llu\n",
              static_cast<unsigned long long>(r.clc_total(ClusterId{0}) +
                                              r.clc_total(ClusterId{1})));
  std::printf("failures / rollbacks     : %llu / %llu\n",
              static_cast<unsigned long long>(r.counter("fault.injected")),
              static_cast<unsigned long long>(r.counter("rollback.count")));
  std::printf("nodes restored           : %llu\n",
              static_cast<unsigned long long>(r.counter("app.restores")));
  std::printf("work lost to rollbacks   : %.1f node-seconds\n",
              r.registry.summary("rollback.lost_work_s").sum());
  std::printf("inter-cluster ctl bytes  : %llu\n",
              static_cast<unsigned long long>(r.counter("net.ctl.inter.bytes")));
  std::printf("intra-cluster ctl bytes  : %llu\n",
              static_cast<unsigned long long>(r.counter("net.ctl.intra.bytes")));
  std::printf("consistency violations   : %zu\n", r.violations.size());
  return 0;
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
