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
//   * send_control() / broadcast helpers for protocol traffic,
//   * the recovery rules every protocol shares (docs/architecture.md,
//     "Recovery rules"): the frozen-application window between a rollback
//     and its state transfer, the lost-work sum and the cluster-rollback
//     counters.

#include <vector>

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
  /// Position of `n` within its cluster (index into a CLC's parts).
  std::uint32_t local_index(NodeId n) const {
    return n.v - ctx_.topology->first_node(ctx_.topology->cluster_of(n)).v;
  }

  // -- recovery rules shared by every protocol ------------------------------

  /// True between freeze_app() and thaw_app(): the application is frozen
  /// awaiting its state transfer and cannot send.
  bool rollback_pending() const { return rollback_pending_; }
  /// While frozen, hold an arriving application message for replay_stash()
  /// and return true; otherwise return false and leave it to the caller.
  bool stash_if_frozen(const net::Envelope& env) {
    if (!rollback_pending_) return false;
    post_rollback_stash_.push_back(env);
    return true;
  }
  /// Freeze the application at the instant a rollback is decided; arrivals
  /// held for an earlier, superseded rollback are discarded.
  void freeze_app();
  /// End the freeze: restore the application to `snap` and resume it.
  void thaw_app(const AppSnapshot& snap);
  /// Hand the messages held while frozen back to on_message, in order.
  void replay_stash();
  /// Add the work undone by restoring `restored` (virtual compute since
  /// that capture) to rollback.lost_work_s.  Call before the restore.
  void account_lost_work(const AppSnapshot& restored);
  /// Count one cluster-scope rollback of cluster `c`, `depth` CLCs deep:
  /// rollback.count, rollback.nodes (every node of `c`) and
  /// rollback.depth_clcs.
  void count_cluster_rollback(ClusterId c, SeqNum depth);

 private:
  net::Envelope make_local_control(
      std::uint64_t bytes,
      std::shared_ptr<const net::ControlPayload> payload) const;
  /// Schedule `payload` for immediate local processing through on_message.
  void deliver_control_locally(
      std::uint64_t bytes, std::shared_ptr<const net::ControlPayload> payload);

  stats::Counter* stat_resent_msgs_{nullptr};
  stats::Counter* stat_resent_bytes_{nullptr};
  stats::Counter* stat_rollback_count_{nullptr};
  stats::Counter* stat_rollback_nodes_{nullptr};
  stats::Summary* stat_rollback_depth_{nullptr};
  stats::Summary* stat_lost_work_{nullptr};

  bool rollback_pending_{false};
  std::vector<net::Envelope> post_rollback_stash_;  ///< arrivals while frozen
};

}  // namespace hc3i::proto
