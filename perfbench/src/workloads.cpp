#include "workloads.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench {

using hc3i::NodeId;
using hc3i::minutes;
using hc3i::batch::RunCase;
using hc3i::batch::SweepSpec;
using hc3i::driver::ProtocolKind;

namespace {

constexpr std::size_t kSweepSeedsPerCell = 8;

/// The sweep's federations: 2-4 clusters of 8 nodes, 15 simulated minutes,
/// a CLC timer of 1 minute so short runs still checkpoint.  The horizon
/// leaves room for a kill under every protocol: the pessimistic-log
/// baseline stops injecting CLC period + 10 minutes before the horizon,
/// after minute 4 here.
std::vector<hc3i::batch::TopologyPoint> sweep_topologies() {
  std::vector<hc3i::batch::TopologyPoint> out;
  for (const std::size_t clusters : {2, 3, 4}) {
    hc3i::batch::TopologyPoint point =
        hc3i::batch::small_topology(clusters, 8);
    auto spec = std::make_shared<hc3i::config::RunSpec>(*point.spec);
    spec->application.total_time = minutes(15);
    for (auto& t : spec->timers.clusters) t.clc_period = minutes(1);
    point.spec = std::move(spec);
    out.push_back(std::move(point));
  }
  return out;
}

/// One scripted kill at 2 minutes, inside every protocol's quiesce bound.
hc3i::batch::CampaignPoint sweep_kill() {
  hc3i::fault::Campaign plan;
  plan.kills.push_back(hc3i::fault::KillSpec{minutes(2), NodeId{1}});
  return hc3i::batch::explicit_campaign("kill", std::move(plan));
}

/// Expand `sweep` and append its cases to `out`, keeping indices dense.
void append(const SweepSpec& sweep, std::vector<RunCase>& out) {
  for (RunCase& rc : hc3i::batch::expand(sweep)) {
    rc.index = out.size();
    out.push_back(std::move(rc));
  }
}

Workload scale(std::string name, std::uint64_t seed, bool overlap_storage) {
  SweepSpec sweep;
  sweep.topologies.push_back(
      hc3i::batch::scale_topology(10, 100, minutes(30)));
  sweep.seeds = {seed};
  Workload w;
  w.name = std::move(name);
  if (overlap_storage) {
    sweep.campaigns.push_back(hc3i::batch::overlap_campaign());
    hc3i::config::StorageSpec striped;
    striped.kind = hc3i::config::StorageSpec::Kind::kStripedRemote;
    sweep.storage.push_back(hc3i::batch::storage_point("striped", striped));
    w.golden = "golden_counters_scale_storage.txt";
  } else {
    sweep.campaigns.push_back(hc3i::batch::no_campaign());
    w.golden = "golden_counters_scale.txt";
  }
  append(sweep, w.cases);
  return w;
}

Workload sweep_small(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_small";
  w.sweep = true;
  w.threads = 2;
  // Disjoint per benchmark seed: seed s runs cells s*1000+1 .. s*1000+8
  // (unsigned arithmetic, so huge seeds wrap instead of overflowing).
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 1; i <= kSweepSeedsPerCell; ++i) {
    seeds.push_back(seed * 1000 + i);
  }
  for (const ProtocolKind protocol :
       {ProtocolKind::kHc3i, ProtocolKind::kIndependent,
        ProtocolKind::kCoordinatedGlobal,
        ProtocolKind::kHierarchicalCoordinated,
        ProtocolKind::kPessimisticLog}) {
    SweepSpec sweep;
    sweep.topologies = sweep_topologies();
    sweep.campaigns.push_back(hc3i::batch::no_campaign());
    // The independent baseline duplicates a delivery after a kill on about
    // 5% of seeds (probe independent_kill_3x8_s11), so its fault cells would
    // fail at random; it runs failure-free only, and the probe reports the
    // defect.
    if (protocol != ProtocolKind::kIndependent) {
      sweep.campaigns.push_back(sweep_kill());
    }
    sweep.seeds = seeds;
    sweep.protocol = protocol;
    append(sweep, w.cases);
  }
  return w;
}

RunCase single_case(SweepSpec sweep) {
  std::vector<RunCase> cases;
  append(sweep, cases);
  if (cases.size() != 1) throw std::logic_error("probe must be one case");
  return cases.front();
}

Probe livelock(std::size_t clusters, std::uint32_t nodes,
               std::uint64_t seed) {
  SweepSpec sweep;
  sweep.topologies.push_back(
      hc3i::batch::scale_topology(clusters, nodes, minutes(10)));
  sweep.campaigns.push_back(hc3i::batch::reference_campaign());
  sweep.seeds = {seed};
  Probe p;
  p.name = "livelock_" + std::to_string(clusters) + "x" +
           std::to_string(nodes) + "_s" + std::to_string(seed);
  p.known_failure =
      "rollback/alert livelock until the drain ends (ROADMAP item 3)";
  p.rc = single_case(std::move(sweep));
  return p;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "scale_plain") return scale(name, seed, false);
  if (name == "scale_overlap_storage") return scale(name, seed, true);
  if (name == "sweep_small") return sweep_small(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Probe> known_failure_probes() {
  std::vector<Probe> probes;
  // Reference campaign in serialized mode on the scale preset: 5,125,212
  // rollbacks from 11 faults (61.5M events) and 3,094,072 rollbacks from 9
  // faults when run to the end of the drain.
  probes.push_back(livelock(3, 4, 61));
  probes.push_back(livelock(3, 8, 22));

  SweepSpec sweep;
  sweep.topologies = {sweep_topologies()[1]};  // small_3x8
  sweep.campaigns.push_back(sweep_kill());
  sweep.seeds = {11};
  sweep.protocol = ProtocolKind::kIndependent;
  Probe dup;
  dup.name = "independent_kill_3x8_s11";
  dup.known_failure =
      "independent baseline delivers a message twice after one kill";
  dup.rc = single_case(std::move(sweep));
  probes.push_back(std::move(dup));
  return probes;
}

}  // namespace perfbench
