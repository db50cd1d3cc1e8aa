#include "proto/msg_log.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hc3i::proto {

void MsgLog::detach() {
  // Null storage means "empty": a mutator about to write needs a buffer.
  // Otherwise use_count > 1 means a captured LogImage (or a log restored
  // from one) still references the buffer; clone before mutating so the
  // image stays frozen at its capture state.  Single-threaded use_count is
  // exact.
  if (!buf_) {
    buf_ = std::make_shared<LogBuffer>();
  } else if (buf_.use_count() > 1) {
    buf_ = std::make_shared<LogBuffer>(*buf_);
  }
}

template <class Pred>
void MsgLog::erase_if(Pred pred) {
  detach();
  std::vector<LogEntry>& entries = buf_->entries;
  for (const auto& e : entries) {
    if (!pred(e)) continue;
    buf_->wire_bytes -= e.env.wire_bytes();
    if (!e.acked) --unacked_;
  }
  entries.erase(std::remove_if(entries.begin(), entries.end(), pred),
                entries.end());
}

void MsgLog::add(const net::Envelope& env) {
  HC3I_CHECK(!env.intra_cluster(), "MsgLog: only inter-cluster messages are logged");
  HC3I_CHECK(size() == 0 || buf_->entries.back().env.id.v < env.id.v,
             "MsgLog: sends must arrive in MsgId order");
  detach();
  buf_->entries.push_back(LogEntry{env, false, 0, 0});
  buf_->wire_bytes += env.wire_bytes();
  ++unacked_;
}

void MsgLog::record_ack(MsgId id, SeqNum ack_sn, Incarnation ack_inc) {
  // Locate first; an unknown id must not pay the copy-on-write barrier.
  const std::vector<LogEntry>& live = entries();
  const auto it = std::lower_bound(
      live.begin(), live.end(), id,
      [](const LogEntry& e, MsgId target) { return e.env.id.v < target.v; });
  if (it == live.end() || !(it->env.id == id)) return;
  const std::size_t idx = static_cast<std::size_t>(it - live.begin());
  detach();
  LogEntry& e = buf_->entries[idx];
  if (!e.acked) --unacked_;
  e.acked = true;
  e.ack_sn = ack_sn;
  e.ack_inc = ack_inc;
}

std::vector<net::Envelope> MsgLog::take_resends(ClusterId dst,
                                                SeqNum restored_sn,
                                                Incarnation new_inc) {
  std::vector<net::Envelope> out;
  auto needs_resend = [&](const LogEntry& e) {
    if (e.env.dst_cluster != dst) return false;
    if (!e.acked) return true;
    // An ack from the new (post-rollback) incarnation proves the delivery
    // happened into the restored execution — it survives.
    if (e.ack_inc >= new_inc) return false;
    // Pre-rollback ack: the delivery survives only if it happened in an
    // epoch strictly before the restored checkpoint.
    return e.ack_sn >= restored_sn;
  };
  for (const auto& e : entries()) {
    if (needs_resend(e)) out.push_back(e.env);
  }
  if (!out.empty()) erase_if(needs_resend);
  return out;
}

std::size_t MsgLog::truncate_from(SeqNum restored_sn) {
  const auto undone = [&](const LogEntry& e) {
    return e.env.piggy.sn >= restored_sn;
  };
  const std::size_t before = size();
  if (std::none_of(entries().begin(), entries().end(), undone)) return 0;
  erase_if(undone);
  return before - size();
}

std::size_t MsgLog::prune(ClusterId dst, SeqNum min_sn) {
  const auto stable = [&](const LogEntry& e) {
    return e.env.dst_cluster == dst && e.acked && e.ack_sn < min_sn;
  };
  const std::size_t before = size();
  if (std::none_of(entries().begin(), entries().end(), stable)) return 0;
  erase_if(stable);
  return before - size();
}

void MsgLog::restore(const LogImage& image) {
  // Adopt the shared buffer (or the empty state); detach() protects the
  // image (and any other adopter) if this log mutates later.
  buf_ = std::const_pointer_cast<LogBuffer>(image.data_);
  unacked_ = 0;
  for (const auto& e : entries()) unacked_ += e.acked ? 0 : 1;
}

}  // namespace hc3i::proto
