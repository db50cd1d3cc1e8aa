// hc3i_sim — the paper's simulator as a standalone tool (§5.1): "The user
// has to provide three files: a topology file, an application file and a
// timer file."
//
//   ./hc3i_sim <topology.conf> <application.conf> <timers.conf>
//              [--seed=1] [--protocol=hc3i|independent|global|hier|pessimistic]
//              [--failures] [--campaign=<campaign.conf>]
//              [--trace=stats|protocol] [--csv]
//              [--trace-out=<trace.json>] [--metrics-out=<metrics.tsv>]
//              [--metrics-interval=<dur>]
//
// --campaign loads a declarative fault plan (see config/parser.hpp for the
// file format); the run report then includes the per-incident recovery
// telemetry table.  A plan whose same-cluster kill queue cannot drain
// before application.total_time (fault::check_queue_bounds) exits 2.
//
// --trace-out writes the structured protocol trace as Chrome/Perfetto
// trace_event JSON (open in https://ui.perfetto.dev); --metrics-out writes
// the periodic counter samples as TSV, sampled every --metrics-interval of
// simulated time (default 30s when --metrics-out is given).  Both outputs
// are byte-reproducible for a fixed seed; see docs/observability.md.
//
// Prints the end-of-run statistics block (the simulator's "lowest output",
// per the paper); --trace=protocol adds the time-stamped protocol trace
// (CLC rounds, commits, rollbacks, GC, failures) on stderr.
// Try it on the committed reference files:
//
//   ./hc3i_sim configs/paper/topology.conf configs/paper/application.conf \
//              configs/paper/timers.conf

#include <cstdio>
#include <iostream>

#include "config/parser.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "obs/export.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

namespace {

/// --trace level (paper §5.1): "stats" prints only the end-of-run report,
/// "protocol" adds the time-stamped protocol trace on stderr.
bool parse_trace(const std::string& name) {
  if (name == "stats") return false;
  if (name == "protocol") return true;
  HC3I_CHECK(false, "unknown --trace: " + name + " (stats|protocol)");
  return false;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  if (flags.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: hc3i_sim <topology.conf> <application.conf> "
                 "<timers.conf> [--seed=N] [--protocol=...] [--failures] "
                 "[--campaign=<file>] [--trace=...] [--csv] "
                 "[--trace-out=<f>] [--metrics-out=<f>] "
                 "[--metrics-interval=<dur>]\n");
    return 2;
  }
  try {
    driver::RunOptions opts;
    if (parse_trace(flags.get("trace", "stats"))) {
      std::cerr.tie(nullptr);  // trace lines must not flush stdout
      opts.text_trace = &std::cerr;
    }
    opts.spec = config::load_run_spec(flags.positional()[0],
                                      flags.positional()[1],
                                      flags.positional()[2]);
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::string protocol = flags.get("protocol", "hc3i");
    const auto kind = driver::parse_protocol(protocol);
    HC3I_CHECK(kind.has_value(), "unknown --protocol: " + protocol);
    opts.protocol = *kind;
    opts.auto_failures = flags.get_bool("failures", false);
    const std::string campaign_path = flags.get("campaign", "");
    if (!campaign_path.empty()) {
      opts.campaign = config::parse_campaign(
          config::read_file(campaign_path), opts.spec.topology, campaign_path);
      // Reject a plan whose same-cluster queues cannot drain before the
      // horizon: those kills would be dropped at the quiesce bound.
      fault::check_queue_bounds(opts.campaign, opts.spec,
                                opts.spec.application.total_time);
    }
    opts.validate = false;  // report violations instead of throwing

    const std::string trace_out = flags.get("trace-out", "");
    const std::string metrics_out = flags.get("metrics-out", "");
    opts.trace = !trace_out.empty();
    const std::string interval_text = flags.get("metrics-interval", "");
    if (!interval_text.empty()) {
      const auto parsed = parse_duration(interval_text);
      HC3I_CHECK(parsed.has_value() && !parsed->is_infinite(),
                 "bad --metrics-interval: " + interval_text);
      opts.metrics_interval = *parsed;
    } else if (!metrics_out.empty()) {
      opts.metrics_interval = seconds(30);
    }

    const driver::RunResult result = driver::run_simulation(opts);
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
    if (flags.get_bool("csv", false)) {
      std::printf("%s", driver::render_counters_csv(result).c_str());
    } else {
      std::printf("%s", driver::render_report(
                            result, opts.spec.topology.cluster_count())
                            .c_str());
    }
    return result.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hc3i_sim: %s\n", e.what());
    return 2;
  }
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
