#pragma once

// The simulation stack assembled by the benchmark itself.
//
// driver::run_simulation is one opaque call; the benchmark needs its three
// phases timed apart (set-up, event loop, audit) and, in the traced run,
// decorators around every agent and application handle.  Stack makes the
// same public calls run_simulation makes, in the same order, so its counter
// dump must match run_simulation's byte for byte; the harness checks that
// on every workload.  Violations are returned, never thrown (RunOptions::
// validate is ignored).  Only the campaign form of the fault plan is
// supported: the benchmark never sets the legacy scripted/auto shims, the
// trace recorder or the metrics sampler.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/global.hpp"
#include "baselines/pessimistic.hpp"
#include "driver/run.hpp"
#include "driver/sim_context.hpp"
#include "fault/engine.hpp"
#include "fed/federation.hpp"
#include "hc3i/runtime.hpp"
#include "stats/accumulators.hpp"
#include "spans.hpp"
#include "timed.hpp"

namespace perfbench {

/// What one finished stack reports.
struct StackResult {
  std::string dump;  ///< Registry::dump() of the final registry
  std::vector<std::string> violations;
  std::uint64_t events{0};
  std::uint64_t rollbacks{0};
  std::uint64_t faults{0};
  // Per-layer facts only the assembled stack can see.
  std::uint64_t msgs_sent{0};         ///< Network::total_sent()
  double storage_bytes_ns{0.0};       ///< ClcStore::storage_bytes() on
                                      ///< every cluster's final store
  hc3i::stats::Log2Histogram recovery_us;  ///< campaign recovery latency
  hc3i::stats::Registry registry;
};

class Stack {
 public:
  /// Assemble the stack from spec to first event.  `book` non-null wraps
  /// every agent and application handle in a timing decorator.
  Stack(const hc3i::driver::RunOptions& opts, SpanBook* book);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Simulated end of the run: the application horizon plus the drain.
  hc3i::SimTime end() const;

  /// Run the event loop to `until` (at most end()); returns events run.
  std::uint64_t run_until(hc3i::SimTime until);

  /// Close the campaign and audit the run as run_simulation does (ledger
  /// validation, cluster agreement, final-store and ledger counters).
  /// `book` non-null times the dump under stats.dump.
  StackResult audit(SpanBook* book);

  const hc3i::stats::Registry& registry() const { return registry_; }

 private:
  // Declaration order mirrors run_simulation's locals so construction and
  // destruction run in the same order.
  hc3i::driver::SimContext ctx_;
  hc3i::proto::ScopedPayloadArena payload_scope_;
  hc3i::driver::RunOptions o_;
  hc3i::sim::Simulation sim_;
  hc3i::stats::Registry registry_;
  std::vector<std::unique_ptr<TimedApp>> timed_apps_;  // outlive the agents
  hc3i::fed::Federation fed_;
  hc3i::app::Workload workload_;
  std::unique_ptr<hc3i::core::Hc3iRuntime> hc3i_rt_;
  std::unique_ptr<hc3i::baselines::GlobalRuntime> global_rt_;
  std::unique_ptr<hc3i::baselines::PessimisticRuntime> pess_rt_;
  hc3i::proto::AgentFactory factory_;
  std::unique_ptr<hc3i::fault::CampaignEngine> engine_;
};

}  // namespace perfbench
