// Ablation A4: the garbage-collection frequency trade-off the paper closes
// §5.4 with — "A tradeoff has to be found between the frequency of garbage
// collection and the number of CLCs stored."  Every run also kills a node
// late (9 h 30 min, node 17): every retained-CLC decision the GC made must
// still admit a full recovery line.
//
//   ./bench_ablation_gc_period [--seed=1]

#include "bench_common.hpp"

#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "Ablation A4", "GC period vs storage high-water mark",
      "more frequent GC bounds storage tighter but costs N-1 requests + "
      "responses + collects per round (paper §5.4)");

  stats::Table t({"GC period", "GC rounds", "Max CLCs (c0)",
                  "Max storage (c0)", "GC WAN msgs", "Post-fault",
                  "Retained at end (c0 / c1)"});
  for (const int period_min : {30, 60, 120, 240, 0 /* = disabled */}) {
    const SimTime period =
        period_min == 0 ? SimTime::infinity() : minutes(period_min);
    driver::RunOptions opts = bench::reference_options(
        minutes(30), minutes(30), 103.0, period, seed);
    opts.campaign.kills.push_back({hours(9) + minutes(30), NodeId{17}});
    const auto r = driver::run_simulation(opts);
    // GC traffic: the only inter-cluster *control* messages in this
    // workload besides acks/alerts are the GC request/response/collect
    // triple; count 3 per round for N=2.
    const std::uint64_t rounds = r.counter("gc.rounds");
    t.row()
        .cell(period_min == 0 ? std::string("off")
                              : std::to_string(period_min) + "min")
        .cell(rounds)
        .cell(r.counter("store.max_clcs.c0"))
        .cell(format_bytes(r.counter("store.max_bytes.c0")))
        .cell(rounds * 3)
        .cell(r.violations.empty() ? "consistent" : "VIOLATIONS")
        .cell(std::to_string(r.counter("store.final_clcs.c0")) + " / " +
              std::to_string(r.counter("store.final_clcs.c1")));
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("Each retained CLC costs every node 2 local states (own part\n"
              "plus its neighbour's replica) — the paper's 63-CLC run kept\n"
              "126 states per node until the first GC reclaimed them.\n");
  return 0;
} catch (const FlagError& e) {  // malformed flag: a usage error
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
