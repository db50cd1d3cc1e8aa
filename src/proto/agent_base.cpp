#include "proto/agent_base.hpp"

namespace hc3i::proto {

net::Envelope AgentBase::send_app(NodeId dst, std::uint64_t bytes,
                                  std::uint64_t app_seq,
                                  const net::Piggyback& piggy) {
  net::Envelope env;
  env.src = self();
  env.dst = dst;
  env.src_cluster = cluster();
  env.dst_cluster = ctx_.topology->cluster_of(dst);
  env.cls = net::MsgClass::kApp;
  env.payload_bytes = bytes;
  env.piggy = piggy;
  env.app_seq = app_seq;
  env.sent_at = now();
  ctx_.ledger->record_send(app_seq, self(), cluster(), now());
  env.id = ctx_.network->send(env);
  return env;
}

net::Envelope AgentBase::resend_app(const net::Envelope& original) {
  net::Envelope env = original;
  ctx_.ledger->record_send(env.app_seq, self(), cluster(), now());
  named_stat(stat_resent_msgs_, "log.resent_msgs").inc();
  // Replay cost in bytes (recovery telemetry reports it per incident).
  named_stat(stat_resent_bytes_, "log.resent_bytes").inc(env.payload_bytes);
  env.sent_at = now();
  env.id = ctx_.network->send(env);
  return env;
}

void AgentBase::deliver_app(const net::Envelope& env) {
  ctx_.ledger->record_delivery(env.app_seq, self(), cluster(), now());
  ctx_.app->deliver(env);
}

MsgId AgentBase::send_control(
    NodeId dst, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) {
  net::Envelope env;
  env.src = self();
  env.dst = dst;
  env.cls = net::MsgClass::kControl;
  env.payload_bytes = bytes;
  env.control = std::move(payload);
  return ctx_.network->send(std::move(env));
}

net::Envelope AgentBase::make_local_control(
    std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) const {
  net::Envelope env;
  env.id = MsgId{0};
  env.src = self();
  env.dst = self();
  env.src_cluster = cluster();
  env.dst_cluster = cluster();
  env.cls = net::MsgClass::kControl;
  env.payload_bytes = bytes;
  env.control = std::move(payload);
  env.sent_at = now();
  return env;
}

void AgentBase::deliver_control_locally(
    std::uint64_t bytes, std::shared_ptr<const net::ControlPayload> payload) {
  // The envelope is built inside the event rather than captured: the event
  // fires at the same instant it is scheduled (zero delay), so sent_at is
  // identical, and the capture stays small enough for the queue's inline
  // callable storage (payload pointer + size instead of a whole Envelope).
  ctx_.sim->schedule_after(
      SimTime::zero(), [this, bytes, payload = std::move(payload)]() mutable {
        on_message(make_local_control(bytes, std::move(payload)));
      });
}

void AgentBase::send_control_or_local(
    NodeId dst, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) {
  if (dst == self()) {
    deliver_control_locally(bytes, std::move(payload));
    return;
  }
  send_control(dst, bytes, std::move(payload));
}

void AgentBase::freeze_app() {
  post_rollback_stash_.clear();
  rollback_pending_ = true;
  ctx_.app->freeze();
}

void AgentBase::thaw_app(const AppSnapshot& snap) {
  rollback_pending_ = false;
  ctx_.app->restore(snap);
}

void AgentBase::replay_stash() {
  auto stash = std::move(post_rollback_stash_);
  post_rollback_stash_.clear();
  for (const net::Envelope& env : stash) on_message(env);
}

void AgentBase::account_lost_work(const AppSnapshot& restored) {
  const SimTime lost = ctx_.app->snapshot().virtual_work - restored.virtual_work;
  if (lost.ns > 0) {
    named_summary(stat_lost_work_, "rollback.lost_work_s").add(lost.seconds());
  }
}

void AgentBase::count_cluster_rollback(ClusterId c, SeqNum depth) {
  named_stat(stat_rollback_count_, "rollback.count").inc();
  named_stat(stat_rollback_nodes_, "rollback.nodes")
      .inc(ctx_.topology->cluster_size(c));
  named_summary(stat_rollback_depth_, "rollback.depth_clcs")
      .add(static_cast<double>(depth));
}

void AgentBase::broadcast_control(
    ClusterId cluster_id, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload, bool include_self) {
  // Iterate the dense node range directly — a broadcast runs for every CLC
  // round and GC/alert relay, and building a node vector per call was a
  // needless per-broadcast allocation.
  const NodeId base = ctx_.topology->first_node(cluster_id);
  const std::uint32_t size = ctx_.topology->cluster_size(cluster_id);
  for (std::uint32_t i = 0; i < size; ++i) {
    const NodeId n{base.v + i};
    if (n == self()) {
      if (include_self) deliver_control_locally(bytes, payload);
      continue;
    }
    send_control(n, bytes, payload);
  }
}

}  // namespace hc3i::proto
