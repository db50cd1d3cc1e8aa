#include "stack.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/independent.hpp"
#include "driver/consistency.hpp"

namespace perfbench {

using hc3i::ClusterId;
using hc3i::NodeId;
using hc3i::SimTime;
using hc3i::driver::ProtocolKind;
using hc3i::driver::RunOptions;

namespace {

/// run_simulation's option normalisation, step for step.
RunOptions normalized(const RunOptions& opts) {
  if (!opts.scripted_failures.empty() || opts.auto_failures || opts.trace ||
      opts.metrics_interval != SimTime::zero()) {
    throw std::invalid_argument(
        "Stack supports campaign-only, unrecorded runs");
  }
  RunOptions o = opts;
  o.spec.validate();
  if (o.protocol == ProtocolKind::kPessimisticLog) {
    o.replay = hc3i::app::ReplayMode::kDeterministic;
  }
  if (o.protocol == ProtocolKind::kIndependent) o.hc3i.enable_gc = false;
  return o;
}

/// run_simulation's quiesce bound for fault injection.
SimTime failure_bound(const RunOptions& o) {
  const SimTime horizon = o.spec.application.total_time;
  if (o.protocol != ProtocolKind::kPessimisticLog) return horizon;
  SimTime max_period = SimTime::zero();
  for (const auto& t : o.spec.timers.clusters) {
    if (!t.clc_period.is_infinite()) {
      max_period = std::max(max_period, t.clc_period);
    }
  }
  const SimTime margin = max_period + hc3i::minutes(10);
  return horizon > margin ? horizon - margin : SimTime::zero();
}

}  // namespace

Stack::Stack(const RunOptions& opts, SpanBook* book)
    : payload_scope_(ctx_.arena()),
      o_(normalized(opts)),
      sim_(o_.seed),
      fed_(sim_, o_.spec, registry_),
      workload_(sim_, fed_.topology(), o_.spec.application, registry_,
                o_.replay) {
  switch (o_.protocol) {
    case ProtocolKind::kHc3i:
      hc3i_rt_ = std::make_unique<hc3i::core::Hc3iRuntime>(o_.spec, o_.hc3i);
      factory_ = hc3i_rt_->factory();
      break;
    case ProtocolKind::kIndependent:
      hc3i_rt_ = std::make_unique<hc3i::core::Hc3iRuntime>(o_.spec, o_.hc3i);
      factory_ = hc3i::baselines::independent_factory(*hc3i_rt_);
      break;
    case ProtocolKind::kCoordinatedGlobal:
      global_rt_ = std::make_unique<hc3i::baselines::GlobalRuntime>(
          o_.spec, /*hierarchical=*/false);
      factory_ = global_rt_->factory();
      break;
    case ProtocolKind::kHierarchicalCoordinated:
      global_rt_ = std::make_unique<hc3i::baselines::GlobalRuntime>(
          o_.spec, /*hierarchical=*/true);
      factory_ = global_rt_->factory();
      break;
    case ProtocolKind::kPessimisticLog:
      pess_rt_ = std::make_unique<hc3i::baselines::PessimisticRuntime>(o_.spec);
      factory_ = pess_rt_->factory();
      break;
  }

  std::vector<hc3i::proto::AppHandle*> apps = workload_.handles();
  if (book != nullptr) {
    const bool hc3i_spans = o_.protocol == ProtocolKind::kHc3i;
    factory_ = [inner = std::move(factory_), book,
                hc3i_spans](const hc3i::proto::AgentContext& ctx)
        -> std::unique_ptr<hc3i::proto::ProtocolAgent> {
      return std::make_unique<TimedAgent>(ctx, inner(ctx), *book, hc3i_spans);
    };
    timed_apps_.reserve(apps.size());
    for (hc3i::proto::AppHandle*& app : apps) {
      timed_apps_.push_back(std::make_unique<TimedApp>(*app, *book));
      app = timed_apps_.back().get();
    }
  }

  fed_.build_agents(factory_, apps);
  workload_.bind_agents([this](NodeId n) { return &fed_.agent(n); });
  fed_.start();
  workload_.start();

  if (!o_.campaign.empty()) {
    engine_ = std::make_unique<hc3i::fault::CampaignEngine>(
        fed_, hc3i_rt_.get(), o_.campaign, failure_bound(o_));
    engine_->arm();
  }
}

SimTime Stack::end() const {
  return o_.spec.application.total_time + o_.drain;
}

std::uint64_t Stack::run_until(SimTime until) {
  return sim_.run_until(std::min(until, end()));
}

StackResult Stack::audit(SpanBook* book) {
  if (engine_) engine_->finalize();

  StackResult r;
  r.violations = fed_.ledger().validate(/*allow_in_flight=*/false);
  if (hc3i_rt_) {
    hc3i::driver::append_cluster_agreement_violations(
        *hc3i_rt_, r.violations,
        /*expect_ddv_agreement=*/o_.protocol == ProtocolKind::kHc3i);
    for (std::size_t c = 0; c < hc3i_rt_->cluster_count(); ++c) {
      registry_.set("store.final_clcs.c" + std::to_string(c),
                    hc3i_rt_->store(ClusterId{static_cast<std::uint32_t>(c)})
                        .size());
    }
  }
  registry_.set("ledger.undone_events", fed_.ledger().undone_events());
  registry_.set("ledger.total_events", fed_.ledger().total_events());
  r.registry = registry_;
  {
    SpanBook::Scope s(book, Span::kStatsDump);
    r.dump = r.registry.dump();
  }

  r.events = sim_.events_executed();
  r.rollbacks = registry_.get("rollback.count");
  r.faults = registry_.get("fault.injected");
  r.msgs_sent = fed_.network().total_sent();
  if (hc3i_rt_) {
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < hc3i_rt_->cluster_count(); ++c) {
      (void)hc3i_rt_->store(ClusterId{static_cast<std::uint32_t>(c)})
          .storage_bytes();
    }
    r.storage_bytes_ns = static_cast<double>(now_ns() - t0);
  }
  if (engine_) r.recovery_us = engine_->telemetry().latency_histogram();
  return r;
}

}  // namespace perfbench
