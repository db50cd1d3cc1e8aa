// Scale-out federation scenario: 10 clusters x 100 nodes (configurable).
//
// The paper's hierarchy exists so the protocol scales past one cluster, but
// its evaluation stops at 2-3 clusters.  This scenario opens the
// large-federation regime: ring-structured traffic over `--clusters`
// clusters of `--nodes` nodes with CLC timers (5 min) and garbage
// collection (10 min) enabled.  It runs exactly one case, built with the
// same batch:: axis-point builders a sweep uses, and prints that case's
// row of the sweep table: events, active census pairs, retained-CLC
// high-water, GC response bytes the delta-compressed encoding saved.  The
// cluster-count axis is a sweep (see docs/scaling.md):
//
//   ./sweep --clusters=2,4,6,8,10 --minutes=30 --seeds=1 --campaigns=none,faulty
//
//   ./scale_federation                         # one 10x100 run
//   ./scale_federation --clusters=6 --nodes=50
//   ./scale_federation --dump-counters         # fixed-seed repro dump (CI
//                                              #   diffs it against
//                                              #   bench/golden_counters_scale.txt)
//   ./scale_federation --faulty                # same scenario under the fixed
//                                              #   reference fault campaign:
//                                              #   prints the run report with
//                                              #   its per-incident table; with
//                                              #   --dump-counters CI diffs it
//                                              #   against
//                                              #   bench/golden_counters_scale_faulty.txt
//   ./scale_federation --overlap               # overlapping-burst campaign:
//                                              #   concurrent per-cluster
//                                              #   recoveries (conc column +
//                                              #   residual row); with
//                                              #   --dump-counters CI diffs it
//                                              #   against
//                                              #   bench/golden_counters_scale_overlap.txt
//   ./scale_federation --storage [--overlap]   # charge checkpoint capture and
//                                              #   recovery reads to a
//                                              #   striped-remote store on
//                                              #   every cluster (orthogonal to
//                                              #   the fault mode); with
//                                              #   --overlap --dump-counters CI
//                                              #   diffs it against
//                                              #   bench/golden_counters_scale_storage.txt
//   ./scale_federation --trace-out=t.json --metrics-out=m.tsv
//                                              # structured protocol trace
//                                              #   (Perfetto trace_event JSON)
//                                              #   and periodic counter samples
//                                              #   (--metrics-interval, default
//                                              #   30s); byte-reproducible per
//                                              #   seed — CI byte-compares two
//                                              #   passes.
//
// Exit status: 0 clean run, 1 consistency violations, 2 usage error.

#include <cstdio>
#include <string>

#include "batch/report.hpp"
#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"
#include "util/walltime.hpp"

using namespace hc3i;

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  for (const std::string& name : flags.names()) {
    if (name != "clusters" && name != "nodes" && name != "seed" &&
        name != "minutes" && name != "dump-counters" && name != "faulty" &&
        name != "overlap" && name != "storage" && name != "trace-out" &&
        name != "metrics-out" && name != "metrics-interval") {
      std::fprintf(stderr,
                   "unknown flag --%s (known: --clusters --nodes --seed "
                   "--minutes --dump-counters --faulty --overlap --storage "
                   "--trace-out --metrics-out --metrics-interval)\n",
                   name.c_str());
      return 2;
    }
  }
  const bool faulty = flags.get_bool("faulty", false);
  const bool overlap = flags.get_bool("overlap", false);
  if (faulty && overlap) {
    std::fprintf(stderr, "--faulty and --overlap are mutually exclusive\n");
    return 2;
  }

  // The one case: a one-cell sweep, so this run and a sweep's cell of the
  // same (topology, campaign, storage, seed) are the same RunOptions.
  batch::SweepSpec sweep;
  sweep.topologies = {batch::scale_topology(
      flags.get_count("clusters", 10), flags.get_count("nodes", 100),
      // At most a simulated year, far from SimTime's nanosecond range.
      minutes(flags.get_count("minutes", 30, 525'600)))};
  sweep.campaigns = {faulty    ? batch::reference_campaign()
                     : overlap ? batch::overlap_campaign()
                               : batch::no_campaign()};
  if (flags.get_bool("storage", false)) {
    // Striped-remote store with the default cost model (5 ms latency,
    // 100 MB/s per stripe, width 4) and incremental dirty-range capture.
    config::StorageSpec striped;
    striped.kind = config::StorageSpec::Kind::kStripedRemote;
    sweep.storage = {batch::storage_point("striped", striped)};
  }
  sweep.seeds = {static_cast<std::uint64_t>(flags.get_int("seed", 1))};

  batch::RunCase rc;
  try {
    rc = batch::expand(sweep)[0];
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "invalid scenario: %s\n", e.what());
    return 2;
  }
  driver::RunOptions opts = rc.options();
  opts.validate = false;  // report violations through the exit status

  const std::string trace_out = flags.get("trace-out", "");
  const std::string metrics_out = flags.get("metrics-out", "");
  const std::string interval_text = flags.get("metrics-interval", "");
  if (!interval_text.empty()) {
    const auto parsed = parse_duration(interval_text);
    if (!parsed.has_value() || parsed->is_infinite()) {
      std::fprintf(stderr, "bad --metrics-interval: %s\n",
                   interval_text.c_str());
      return 2;
    }
    opts.metrics_interval = *parsed;
  } else if (!metrics_out.empty()) {
    opts.metrics_interval = seconds(30);
  }
  opts.trace = !trace_out.empty();

  const double t0 = util::now_sec();
  const driver::RunResult result = driver::run_simulation(opts);
  const int status = result.violations.empty() ? 0 : 1;
  if (flags.get_bool("dump-counters", false)) {
    std::fputs(result.registry.dump().c_str(), stdout);
    return status;
  }
  if (result.obs != nullptr) {
    if (!trace_out.empty()) {
      HC3I_CHECK(obs::write_text_file(trace_out, obs::trace_json(*result.obs)),
                 "cannot write " + trace_out);
    }
    if (!metrics_out.empty()) {
      HC3I_CHECK(
          obs::write_text_file(metrics_out, obs::metrics_tsv(*result.obs)),
          "cannot write " + metrics_out);
    }
  }

  if (!opts.campaign.empty()) {
    // Under a fault campaign the run report (with its per-incident recovery
    // telemetry table) is the interesting output; the table row follows.
    std::fputs(driver::render_report(result,
                                     opts.spec.topology.cluster_count())
                   .c_str(),
               stdout);
    std::fputs("\n", stdout);
  }
  batch::BatchReport report;
  report.cases = {batch::summarize(rc, result)};
  report.cases[0].wall_sec = util::now_sec() - t0;
  report.wall_sec = report.cases[0].wall_sec;
  std::fputs(report.render_table().c_str(), stdout);
  return status;
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
