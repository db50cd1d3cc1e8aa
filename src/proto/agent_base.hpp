#pragma once

// Shared agent plumbing.
//
// AgentBase centralises the bookkeeping every protocol must get right so the
// consistency ledger audits all of them uniformly:
//
//   * send_app()     — build the envelope, record the send in the ledger at
//                      the moment it actually enters the network (queued
//                      sends are recorded at drain time, which is what makes
//                      checkpoint cuts exact — docs/architecture.md,
//                      refinement R5),
//   * deliver_app()  — record the delivery and hand the message to the app,
//   * send_control() / broadcast helpers for protocol traffic.

#include "proto/agent.hpp"

namespace hc3i::proto {

/// Base class with ledger-audited send/deliver helpers.
class AgentBase : public ProtocolAgent {
 public:
  using ProtocolAgent::ProtocolAgent;

 protected:
  /// Transmit an application message now. Records the send in the ledger.
  /// Returns the envelope as sent (id assigned) for sender-side logging.
  net::Envelope send_app(NodeId dst, std::uint64_t bytes,
                         std::uint64_t app_seq, const net::Piggyback& piggy);

  /// Re-transmit a logged envelope (same app_seq and piggyback, new MsgId).
  /// The ledger sees resends as additional live sends of the same logical
  /// message. Returns the new envelope for re-logging.
  net::Envelope resend_app(const net::Envelope& original);

  /// Deliver an application message to the local process (ledger-recorded).
  void deliver_app(const net::Envelope& env);

  /// Transmit a control message carrying `payload`.
  MsgId send_control(NodeId dst, std::uint64_t bytes,
                     std::shared_ptr<const net::ControlPayload> payload);

  /// Like send_control, but a message to self is processed locally through
  /// on_message via an immediately scheduled event (uniform code path).
  void send_control_or_local(NodeId dst, std::uint64_t bytes,
                             std::shared_ptr<const net::ControlPayload> payload);

  /// Send a control message to every node of `cluster` except self;
  /// when `include_self` is set the payload is also processed locally.
  void broadcast_control(ClusterId cluster, std::uint64_t bytes,
                         std::shared_ptr<const net::ControlPayload> payload,
                         bool include_self);

  /// Simulation clock shorthand.
  SimTime now() const { return ctx_.sim->now(); }

  /// The run's protocol event stream (the HC3I_OBS target).
  obs::EventStream& events() const { return *ctx_.events; }

  /// Lazily resolve a registry counter handle into `slot`: the name lookup
  /// happens once per agent, the counter still only exists once touched.
  stats::Counter& named_stat(stats::Counter*& slot, std::string_view name) {
    return stats::lazy_counter(*ctx_.registry, slot, [name] { return name; });
  }

  /// Lazily resolve a summary handle (see named_stat()).
  stats::Summary& named_summary(stats::Summary*& slot, std::string_view name) {
    return stats::lazy_summary(*ctx_.registry, slot, [name] { return name; });
  }

  /// First node of a cluster — the conventional coordinator.
  NodeId coordinator_of(ClusterId c) const {
    return ctx_.topology->first_node(c);
  }
  bool is_cluster_coordinator() const {
    return self() == coordinator_of(cluster());
  }

 private:
  net::Envelope make_local_control(
      std::uint64_t bytes,
      std::shared_ptr<const net::ControlPayload> payload) const;
  /// Schedule `payload` for immediate local processing through on_message.
  void deliver_control_locally(
      std::uint64_t bytes, std::shared_ptr<const net::ControlPayload> payload);

  stats::Counter* stat_resent_msgs_{nullptr};
  stats::Counter* stat_resent_bytes_{nullptr};
};

}  // namespace hc3i::proto
