// Sharded sweep driver: the one way to run a grid.
//
// Expands a topology x campaign x seed grid and shards the runs across
// worker threads, each worker owning its full simulation context (payload
// pools included — see src/batch/ and driver/sim_context.hpp).  Per-run
// results are byte-identical to solo single-threaded runs of the same
// (spec, seed) regardless of thread count; the aggregated report is in grid
// order, independent of scheduling.
//
//   ./sweep                                        # 2,5,10-cluster grid x 3 seeds
//   ./sweep --clusters=2,5,10 --campaigns=none,faulty --seeds=1..5
//   ./sweep --clusters=2,4,6,8,10 --minutes=30 --seeds=1 --campaigns=none,faulty
//                                                  # the scaling table: events,
//                                                  #   census pairs, retained
//                                                  #   CLCs, GC bytes saved
//   ./sweep --clusters=2,5,10 --minutes=20 --seeds=1 \
//           --campaigns=mtbf:10min,mtbf:5min,mtbf:2min
//                                                  # recovery cost vs fault
//                                                  #   rate x cluster count
//   ./sweep --nodes=50 --minutes=10 --threads=4 --json
//   ./sweep --config=my_sweep.ini                  # the sweep config kind
//                                                  #   (batch::parse_sweep)
//   ./sweep --grid=determinism                     # CI seed-grid check: the
//                                                  #   10x100 overlap scenario,
//                                                  #   10 seeds x 2 runs, every
//                                                  #   pair byte-compared, plus
//                                                  #   one storage-charged cell
//   ./sweep --grid=storage                         # optimal-interval table:
//                                                  #   checkpoint interval x
//                                                  #   storage bandwidth for
//                                                  #   both backends
//   ./sweep --obs-dir=traces [--metrics-interval=30s]
//                                                  # per-case observability:
//                                                  #   every grid cell writes
//                                                  #   traces/case<i>.trace.json
//                                                  #   (+ .metrics.tsv); paths
//                                                  #   are disjoint per case so
//                                                  #   shards never collide
//
// --threads, --obs-dir and --metrics-interval apply to every grid, the named
// --grid ones included.
//
// --campaigns kinds: none (failure-free), faulty (the reference campaign, as
// the scale_federation --faulty golden), overlap (the overlapping-burst
// campaign; needs >= 4 clusters), mtbf:<dur> (one federation-wide Poisson
// failure stream of that MTBF).
//
// Exit status: 0 all runs clean, 1 any violation/mismatch, 2 usage error.

#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "config/parser.hpp"
#include "config/spec.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

namespace {

/// Run a sweep twice and byte-compare each case's counter dump, printing one
/// line per case under `label`.  Returns the number of mismatching cases.
std::size_t compare_two_passes(const batch::Runner& runner,
                               const batch::SweepSpec& sweep,
                               const char* label) {
  const batch::BatchReport a = runner.run(sweep);
  const batch::BatchReport b = runner.run(sweep);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    const batch::CaseResult& ca = a.cases[i];
    const batch::CaseResult& cb = b.cases[i];
    const bool same = ca.ok && cb.ok && ca.dump == cb.dump;
    if (!same) ++mismatches;
    std::printf("  %s seed %-3llu %s\n", label,
                static_cast<unsigned long long>(ca.seed),
                same ? "ok (byte-identical)"
                     : !ca.ok || !cb.ok ? "FAILED RUN" : "DUMP MISMATCH");
  }
  std::printf("  %s: %zu cases, %.2f s + %.2f s wall (%zu threads)\n", label,
              a.cases.size(), a.wall_sec, b.wall_sec, a.threads);
  return mismatches;
}

/// The CI determinism grid: every seed of the overlap scenario run twice
/// (threads-many shards each pass), each pair's counter dumps byte-compared.
/// This is the promotion of the PR 6 hand-rolled 3-seed shell loop to a
/// 10-seed grid the sharded runner can afford inside the CI budget.  A
/// second, smaller cell repeats the check with the storage axis engaged so
/// capture stalls and chain reads are covered by the same bit-for-bit
/// guarantee.
int run_determinism_grid(batch::RunnerOptions opts) {
  opts.keep_dumps = true;
  const batch::Runner runner(opts);

  batch::SweepSpec sweep;
  sweep.topologies = {batch::scale_topology(10, 100, minutes(30))};
  sweep.campaigns = {batch::overlap_campaign()};
  for (std::uint64_t s = 1; s <= 10; ++s) sweep.seeds.push_back(s);
  std::printf("determinism grid: %zu runs x 2 passes (overlap 10x100)\n",
              sweep.runs());
  std::size_t mismatches = compare_two_passes(runner, sweep, "plain  ");

  // The storage-charged cell: striped-remote backend with incremental
  // capture, 3 seeds.  Capture stalls reshape the event schedule, so this
  // exercises a decision stream the plain cell never sees.
  batch::SweepSpec charged;
  charged.topologies = sweep.topologies;
  charged.campaigns = sweep.campaigns;
  charged.seeds = {1, 2, 3};
  config::StorageSpec striped;
  striped.kind = config::StorageSpec::Kind::kStripedRemote;
  charged.storage = {
      batch::storage_point("striped", striped, minutes(5), 16ull << 20)};
  std::printf("storage-charged cell: %zu runs x 2 passes (striped-remote)\n",
              charged.runs());
  mismatches += compare_two_passes(runner, charged, "striped");

  std::printf("%s\n", mismatches == 0 ? "PASS" : "FAIL");
  return mismatches == 0 ? 0 : 1;
}

/// The optimal-interval grid: checkpoint interval x storage bandwidth for
/// both backends, reference fault campaign.  Each cell reports checkpoint
/// bytes written and the two sides of the classic tradeoff — time lost
/// writing checkpoints (capture stalls + recovery chain reads) vs. work
/// re-executed after rollbacks — and the per-(backend, bandwidth) row with
/// the lowest total is flagged as the optimal interval.
///
/// Runs the independent-checkpointing baseline, not HC3I: under HC3I the
/// §3.2 forcing rule ties CLC frequency to inter-cluster traffic, so with
/// the ring workload the timer barely moves the checkpoint rate and there
/// is no interval to optimise (see docs/scaling.md).  The baseline
/// checkpoints purely on the timer, which is the regime the classic
/// interval analysis assumes.
int run_storage_grid(const batch::RunnerOptions& opts) {
  struct BwPoint { const char* tag; double bytes_per_sec; };
  struct IvPoint { const char* tag; SimTime period; };
  static const BwPoint kBandwidths[] = {{"50M", 50e6}, {"200M", 200e6}};
  static const IvPoint kIntervals[] = {
      {"2m", minutes(2)}, {"5m", minutes(5)}, {"10m", minutes(10)}};
  static const std::pair<config::StorageSpec::Kind, const char*> kKinds[] = {
      {config::StorageSpec::Kind::kLocalDisk, "local-disk"},
      {config::StorageSpec::Kind::kStripedRemote, "striped-remote"}};
  constexpr std::uint64_t kStateBytes = 64ull << 20;  // per node

  batch::SweepSpec sweep;
  sweep.protocol = driver::ProtocolKind::kIndependent;
  sweep.topologies = {batch::scale_topology(4, 25, minutes(60))};
  sweep.campaigns = {batch::reference_campaign()};
  sweep.seeds = {1, 2};
  for (const auto& [kind, ktag] : kKinds) {
    for (const BwPoint& bw : kBandwidths) {
      for (const IvPoint& iv : kIntervals) {
        config::StorageSpec st;
        st.kind = kind;
        st.write_bytes_per_sec = bw.bytes_per_sec;
        st.read_bytes_per_sec = bw.bytes_per_sec;
        sweep.storage.push_back(batch::storage_point(
            std::string(ktag) + "/" + bw.tag + "/" + iv.tag, st, iv.period,
            kStateBytes));
      }
    }
  }

  const batch::Runner runner(opts);
  std::printf("storage grid: %zu runs (4x25 faulty, independent protocol, "
              "64 MiB state/node)\n",
              sweep.runs());
  const batch::BatchReport report = runner.run(sweep);
  if (report.failures() > 0) {
    std::fputs(report.render_table().c_str(), stdout);
    return 1;
  }

  // One topology and one campaign, so the cells are the storage axis in
  // grid order: (backend, bandwidth) groups of one cell per interval.
  const std::vector<batch::CellResult> cells = report.cells();
  HC3I_CHECK(cells.size() == sweep.storage.size(),
             "storage grid: expected one cell per storage point");
  const auto total_s = [](const batch::CaseResult& t) {
    return static_cast<double>(t.ckpt_stall_us) * 1e-6 +
           static_cast<double>(t.recovery_read_us) * 1e-6 + t.lost_work_s;
  };
  std::printf("\n%-15s %-7s %-9s %10s %9s %8s %13s %9s\n", "backend",
              "bw", "interval", "ckpt GiB", "stall s", "read s",
              "lost work s", "total s");
  std::size_t next = 0;
  for (const auto& [kind, ktag] : kKinds) {
    for (const BwPoint& bw : kBandwidths) {
      // The optimal interval for this (backend, bandwidth) row group.
      double best = -1.0;
      for (std::size_t i = 0; i < std::size(kIntervals); ++i) {
        const double t = total_s(cells[next + i].total);
        if (best < 0 || t < best) best = t;
      }
      for (const IvPoint& iv : kIntervals) {
        const batch::CaseResult& t = cells[next++].total;
        std::printf("%-15s %-7s %-9s %10.2f %9.1f %8.1f %13.1f %9.1f%s\n",
                    ktag, bw.tag, iv.tag,
                    static_cast<double>(t.ckpt_bytes) / (1ull << 30),
                    static_cast<double>(t.ckpt_stall_us) * 1e-6,
                    static_cast<double>(t.recovery_read_us) * 1e-6,
                    t.lost_work_s, total_s(t),
                    total_s(t) == best ? "  <- optimal" : "");
      }
    }
  }
  std::printf("\n%zu runs in %.2f s (%zu threads)\n", report.cases.size(),
              report.wall_sec, report.threads);
  return 0;
}

/// One --campaigns token: none | faulty | overlap | mtbf:<dur>.
std::optional<batch::CampaignPoint> parse_campaign_point(
    const std::string& tok) {
  if (tok == "none") return batch::no_campaign();
  if (tok == "faulty") return batch::reference_campaign();
  if (tok == "overlap") return batch::overlap_campaign();
  if (tok.rfind("mtbf:", 0) == 0) {
    const auto mtbf = parse_duration(tok.substr(5));
    if (mtbf && !mtbf->is_infinite() && mtbf->ns > 0) {
      return batch::mtbf_campaign(*mtbf);
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  for (const std::string& name : flags.names()) {
    if (name != "clusters" && name != "nodes" && name != "minutes" &&
        name != "campaigns" && name != "seeds" && name != "threads" &&
        name != "json" && name != "config" && name != "grid" &&
        name != "protocol" && name != "obs-dir" &&
        name != "metrics-interval") {
      std::fprintf(stderr,
                   "unknown flag --%s (known: --clusters --nodes --minutes "
                   "--campaigns --seeds --threads --json --config --grid "
                   "--protocol --obs-dir --metrics-interval)\n",
                   name.c_str());
      return 2;
    }
  }
  batch::RunnerOptions opts;
  opts.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  opts.obs_dir = flags.get("obs-dir", "");
  if (!opts.obs_dir.empty()) {
    const std::string interval_text = flags.get("metrics-interval", "30s");
    const auto parsed = parse_duration(interval_text);
    if (!parsed.has_value() || parsed->is_infinite()) {
      std::fprintf(stderr, "bad --metrics-interval: %s\n",
                   interval_text.c_str());
      return 2;
    }
    opts.obs_metrics_interval = *parsed;
  }

  const std::string grid = flags.get("grid", "");
  if (!grid.empty()) {
    if (grid == "determinism") return run_determinism_grid(opts);
    if (grid == "storage") return run_storage_grid(opts);
    std::fprintf(stderr, "unknown --grid=%s (known: determinism storage)\n",
                 grid.c_str());
    return 2;
  }

  batch::SweepSpec sweep;
  const std::string config_path = flags.get("config", "");
  if (!config_path.empty()) {
    try {
      sweep = batch::parse_sweep(config::read_file(config_path), config_path);
    } catch (const config::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  } else {
    const std::uint32_t nodes = flags.get_count("nodes", 100);
    // At most a simulated year, far from SimTime's nanosecond range.
    const SimTime total = minutes(flags.get_count("minutes", 10, 525'600));
    for (const std::string& tok : split_list(flags.get("clusters", "2,5,10"))) {
      const auto v = parse_uint(tok);
      if (!v || *v < 1) {
        std::fprintf(stderr, "--clusters wants counts >= 1, got '%s'\n",
                     tok.c_str());
        return 2;
      }
      sweep.topologies.push_back(
          batch::scale_topology(static_cast<std::size_t>(*v), nodes, total));
    }
    for (const std::string& tok : split_list(flags.get("campaigns", "none"))) {
      const auto point = parse_campaign_point(tok);
      if (!point) {
        std::fprintf(stderr, "--campaigns wants none|faulty|overlap|"
                             "mtbf:<dur>, got '%s'\n", tok.c_str());
        return 2;
      }
      sweep.campaigns.push_back(*point);
    }
    try {
      sweep.seeds = batch::parse_seed_list(flags.get("seeds", "1..3"),
                                           "--seeds");
    } catch (const config::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    const std::string proto = flags.get("protocol", "hc3i");
    const auto protocol = driver::parse_protocol(proto);
    if (!protocol) {
      std::fprintf(stderr, "unknown --protocol=%s\n", proto.c_str());
      return 2;
    }
    sweep.protocol = *protocol;
  }

  const batch::Runner runner(opts);
  batch::BatchReport report;
  try {
    report = runner.run(sweep);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "invalid sweep: %s\n", e.what());
    return 2;
  }

  if (flags.get_bool("json", false)) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.render_table().c_str(), stdout);
  }
  return report.failures() == 0 ? 0 : 1;
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
