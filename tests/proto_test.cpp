// Unit tests for src/proto: DDV, sender log, checkpoint store, ledger.

#include <gtest/gtest.h>

#include "proto/clc_store.hpp"
#include "proto/ddv.hpp"
#include "proto/ledger.hpp"
#include "proto/msg_log.hpp"
#include "util/rng.hpp"

namespace hc3i::proto {
namespace {

// ---------------------------------------------------------------------------
// Ddv
// ---------------------------------------------------------------------------

TEST(Ddv, ConstructionSetsOwnEntry) {
  const Ddv d(3, ClusterId{1}, 7);
  EXPECT_EQ(d.at(ClusterId{0}), 0u);
  EXPECT_EQ(d.at(ClusterId{1}), 7u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(Ddv, RaiseOnlyGoesUp) {
  Ddv d(2, ClusterId{0}, 1);
  EXPECT_TRUE(d.raise(ClusterId{1}, 5));
  EXPECT_FALSE(d.raise(ClusterId{1}, 3));
  EXPECT_EQ(d.at(ClusterId{1}), 5u);
}

TEST(Ddv, MergeMaxEntryWise) {
  Ddv a(3, ClusterId{0}, 2);
  Ddv b(3, ClusterId{1}, 9);
  a.raise(ClusterId{2}, 4);
  b.raise(ClusterId{2}, 1);
  a.merge_max(b);
  EXPECT_EQ(a.at(ClusterId{0}), 2u);
  EXPECT_EQ(a.at(ClusterId{1}), 9u);
  EXPECT_EQ(a.at(ClusterId{2}), 4u);
}

TEST(Ddv, OutOfRangeThrows) {
  Ddv d(2, ClusterId{0}, 1);
  EXPECT_THROW(d.at(ClusterId{5}), CheckFailure);
  EXPECT_THROW(d.raise(ClusterId{5}, 1), CheckFailure);
}

// ---------------------------------------------------------------------------
// MsgLog
// ---------------------------------------------------------------------------

net::Envelope inter_env(std::uint64_t msg_id, SeqNum piggy_sn,
                        std::uint32_t dst_cluster = 1,
                        std::uint64_t app_seq = 0) {
  net::Envelope env;
  env.id = MsgId{msg_id};
  env.src = NodeId{0};
  env.dst = NodeId{100};
  env.src_cluster = ClusterId{0};
  env.dst_cluster = ClusterId{dst_cluster};
  env.payload_bytes = 100;
  env.piggy.sn = piggy_sn;
  env.app_seq = app_seq ? app_seq : msg_id;
  return env;
}

TEST(MsgLog, RejectsIntraCluster) {
  MsgLog log;
  net::Envelope env = inter_env(1, 1);
  env.dst_cluster = env.src_cluster;
  EXPECT_THROW(log.add(env), CheckFailure);
}

TEST(MsgLog, UnackedEntriesAreResent) {
  MsgLog log;
  log.add(inter_env(1, 1));
  const auto resends = log.take_resends(ClusterId{1}, 1, 1);
  EXPECT_EQ(resends.size(), 1u);
  EXPECT_EQ(log.size(), 0u);  // taken entries leave the log
}

TEST(MsgLog, AckedBeforeRestorePointIsStable) {
  // Delivery in epoch 2, receiver restored to SN 3 => the delivery is part
  // of the restored state; no resend.
  MsgLog log;
  log.add(inter_env(1, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/2, /*ack_inc=*/0);
  const auto resends = log.take_resends(ClusterId{1}, /*restored_sn=*/3,
                                        /*new_inc=*/1);
  EXPECT_TRUE(resends.empty());
  EXPECT_EQ(log.size(), 1u);
}

TEST(MsgLog, AckedAtOrAfterRestorePointIsResent) {
  // Paper §3.4: "Logged messages ... acknowledged with a SN greater than
  // the alert one (or not acknowledged at all) will then be resent";
  // under our SN convention the boundary epoch is lost too
  // (docs/architecture.md, refinement R2).
  MsgLog log;
  log.add(inter_env(1, 1));
  log.add(inter_env(2, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/3, /*ack_inc=*/0);
  log.record_ack(MsgId{2}, /*ack_sn=*/5, /*ack_inc=*/0);
  const auto resends = log.take_resends(ClusterId{1}, /*restored_sn=*/3,
                                        /*new_inc=*/1);
  EXPECT_EQ(resends.size(), 2u);
}

TEST(MsgLog, AckFromNewIncarnationIsStable) {
  // The receiver already re-delivered this message after its rollback.
  MsgLog log;
  log.add(inter_env(1, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/7, /*ack_inc=*/2);
  const auto resends =
      log.take_resends(ClusterId{1}, /*restored_sn=*/3, /*new_inc=*/2);
  EXPECT_TRUE(resends.empty());
}

TEST(MsgLog, ResendsOnlyTargetCluster) {
  MsgLog log;
  log.add(inter_env(1, 1, /*dst_cluster=*/1));
  log.add(inter_env(2, 1, /*dst_cluster=*/2));
  const auto resends = log.take_resends(ClusterId{2}, 1, 1);
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends[0].dst_cluster, ClusterId{2});
  EXPECT_EQ(log.size(), 1u);
}

TEST(MsgLog, TruncateDropsUndoneSends) {
  // Our own cluster rolled back to SN 3: sends from epochs >= 3 are undone.
  MsgLog log;
  log.add(inter_env(1, 2));
  log.add(inter_env(2, 3));
  log.add(inter_env(3, 5));
  EXPECT_EQ(log.truncate_from(3), 2u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].env.piggy.sn, 2u);
}

TEST(MsgLog, PruneKeepsUnackedAndRecent) {
  // GC rule (paper §3.5): remove entries acknowledged below the receiver
  // cluster's smallest possible rollback SN.
  MsgLog log;
  log.add(inter_env(1, 1));  // will be acked at 2 (stable if min_sn > 2)
  log.add(inter_env(2, 1));  // acked at 9 (recent)
  log.add(inter_env(3, 1));  // never acked
  log.record_ack(MsgId{1}, 2, 0);
  log.record_ack(MsgId{2}, 9, 0);
  EXPECT_EQ(log.prune(ClusterId{1}, /*min_sn=*/5), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(MsgLog, AckForUnknownIdIgnored) {
  MsgLog log;
  log.record_ack(MsgId{404}, 1, 0);  // no crash, no effect
  EXPECT_EQ(log.size(), 0u);
}

TEST(MsgLog, BytesAccountsPayloadAndMetadata) {
  MsgLog log;
  log.add(inter_env(1, 1));
  EXPECT_GT(log.bytes(), 100u);
}

std::uint64_t recount_wire(const std::vector<LogEntry>& entries) {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.env.wire_bytes();
  return total;
}

void expect_log_aggregates(const MsgLog& log) {
  EXPECT_EQ(log.wire_bytes(), recount_wire(log.entries()));
  std::size_t unacked = 0;
  for (const auto& e : log.entries()) unacked += e.acked ? 0 : 1;
  EXPECT_EQ(log.unacked_count(), unacked);
}

TEST(MsgLog, WireBytesTracksEveryMutator) {
  MsgLog log;
  EXPECT_EQ(log.wire_bytes(), 0u);
  for (std::uint64_t id = 1; id <= 12; ++id) {
    net::Envelope env = inter_env(id, /*piggy_sn=*/id % 4 + 1,
                                  /*dst_cluster=*/1 + id % 3);
    env.payload_bytes = 50 * id;  // distinct sizes catch a wrong subtrahend
    log.add(env);
    expect_log_aggregates(log);
  }
  for (std::uint64_t id = 1; id <= 12; id += 2) {
    log.record_ack(MsgId{id}, /*ack_sn=*/id % 5, /*ack_inc=*/0);
    expect_log_aggregates(log);
  }
  const std::uint64_t before_ack = log.wire_bytes();
  log.record_ack(MsgId{1}, 9, 0);  // re-ack: bytes unchanged
  EXPECT_EQ(log.wire_bytes(), before_ack);

  // Capture, then mutate: the image keeps its capture-time total while the
  // live log (detached) moves on.
  const LogImage image = log.capture();
  const std::uint64_t at_capture = image.wire_bytes();
  EXPECT_EQ(at_capture, recount_wire(image.entries()));

  EXPECT_FALSE(log.take_resends(ClusterId{2}, /*restored_sn=*/2, 1).empty());
  expect_log_aggregates(log);
  EXPECT_GT(log.truncate_from(4), 0u);
  expect_log_aggregates(log);
  log.prune(ClusterId{3}, /*min_sn=*/10);
  expect_log_aggregates(log);
  EXPECT_EQ(image.wire_bytes(), at_capture);
  EXPECT_EQ(image.wire_bytes(), recount_wire(image.entries()));

  log.restore(image);
  EXPECT_EQ(log.wire_bytes(), at_capture);
  expect_log_aggregates(log);
  log.add(inter_env(20, 1));  // detaches from the image again
  expect_log_aggregates(log);
  EXPECT_EQ(image.wire_bytes(), at_capture);

  log.restore(LogImage{});  // never-logged image
  EXPECT_EQ(log.wire_bytes(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  expect_log_aggregates(log);
}

// ---------------------------------------------------------------------------
// ClcStore
// ---------------------------------------------------------------------------

ClcRecord record(SeqNum sn, std::vector<SeqNum> ddv_entries,
                 std::uint32_t nodes = 2) {
  ClcRecord rec;
  rec.sn = sn;
  rec.ddv = Ddv(ddv_entries.size(), ClusterId{0}, 0);
  for (std::size_t i = 0; i < ddv_entries.size(); ++i) {
    rec.ddv.set(ClusterId{static_cast<std::uint32_t>(i)}, ddv_entries[i]);
  }
  rec.parts.resize(nodes);
  for (auto& p : rec.parts) p.app.state_bytes = 1000;
  return rec;
}

TEST(ClcStore, CommitEnforcesInvariants) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  EXPECT_THROW(store.commit(record(1, {1, 0})), CheckFailure);  // not increasing
  EXPECT_THROW(store.commit(record(5, {4, 0})), CheckFailure);  // ddv[self] != sn
  ClcRecord bad = record(2, {2, 0}, /*nodes=*/3);
  EXPECT_THROW(store.commit(std::move(bad)), CheckFailure);  // wrong part count
}

TEST(ClcStore, OldestWithDepAtLeast) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  store.commit(record(2, {2, 3}));
  store.commit(record(3, {3, 3}));
  store.commit(record(4, {4, 6}));
  const ClcRecord* rec = store.oldest_with_dep_at_least(ClusterId{1}, 3);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sn, 2u);  // the *oldest* qualifying CLC (paper §3.4)
  EXPECT_EQ(store.oldest_with_dep_at_least(ClusterId{1}, 7), nullptr);
}

TEST(ClcStore, TruncateAfterRollback) {
  ClcStore store(ClusterId{0}, 2, 1);
  for (SeqNum sn = 1; sn <= 5; ++sn) store.commit(record(sn, {sn, 0}));
  EXPECT_EQ(store.truncate_after(3), 2u);
  EXPECT_EQ(store.last().sn, 3u);
}

TEST(ClcStore, PruneBeforeGc) {
  ClcStore store(ClusterId{0}, 2, 1);
  for (SeqNum sn = 1; sn <= 5; ++sn) store.commit(record(sn, {sn, 0}));
  EXPECT_EQ(store.prune_before(4), 3u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.records().front().sn, 4u);
}

TEST(ClcStore, StorageAccountsReplication) {
  // Paper §5.4 arithmetic: with one neighbour replica each node stores
  // 2 local states per retained CLC (63 CLCs -> 126 local states).
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  EXPECT_EQ(store.local_states_per_node(), 2u);
  const std::uint64_t one = store.storage_bytes();
  EXPECT_EQ(one, 2u * 2u * 1000u);  // 2 nodes x (1+1 copies) x 1000 B
  store.commit(record(2, {2, 0}));
  EXPECT_EQ(store.local_states_per_node(), 4u);
  EXPECT_EQ(store.storage_bytes(), 2 * one);
}

TEST(ClcStore, RunningTotalMatchesRecountUnderRandomOps) {
  // Two logs whose images are shared by several parts (capture is a
  // refcount bump), plus never-logged parts with null images.
  MsgLog busy;
  MsgLog quiet;
  RngStream rng(/*master_seed=*/42, /*stream_id=*/0);
  std::uint64_t next_id = 1;
  ClcStore store(ClusterId{0}, 3, 1);
  SeqNum sn = 0;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 6) {
      for (std::uint64_t k = rng.next_below(3); k-- > 0;) {
        net::Envelope env = inter_env(next_id++, sn + 1);
        env.payload_bytes = 1 + rng.next_below(500);
        busy.add(env);
      }
      if (rng.bernoulli(0.2)) quiet.add(inter_env(next_id++, sn + 1));
      ++sn;
      ClcRecord rec = record(sn, {sn, 0}, /*nodes=*/3);
      rec.parts[0].log = busy.capture();
      rec.parts[1].log = busy.capture();  // shares parts[0]'s buffer
      rec.parts[2].log = rng.bernoulli(0.5) ? quiet.capture() : LogImage{};
      rec.parts[2].app.incremental = rng.bernoulli(0.5);
      rec.parts[2].app.delta_bytes = rng.next_below(1000);
      if (rng.bernoulli(0.3)) {
        net::Envelope ch = inter_env(next_id++, sn, /*dst_cluster=*/0);
        ch.payload_bytes = rng.next_below(300);
        rec.channel.push_back(ch);
      }
      store.commit(std::move(rec));
    } else if (op < 8 && !store.empty()) {
      const SeqNum first = store.records().front().sn;
      store.truncate_after(first + rng.next_below(sn - first + 1));
    } else if (!store.empty()) {
      const SeqNum first = store.records().front().sn;
      store.prune_before(first + rng.next_below(sn - first + 2));
    }
    // Mutating the live logs after capture must not move stored totals.
    if (rng.bernoulli(0.3)) busy.truncate_from(sn > 2 ? sn - 2 : 1);
    ASSERT_EQ(store.storage_bytes(), store.recount_bytes()) << "step " << step;
  }
  EXPECT_GT(store.storage_bytes(), 0u);
  store.prune_before(sn + 1);
  EXPECT_EQ(store.storage_bytes(), 0u);
}

TEST(ClcStore, FindBySn) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  store.commit(record(4, {4, 0}));
  EXPECT_NE(store.find(4), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
}

TEST(ClcStore, ReplicationBounds) {
  EXPECT_THROW(ClcStore(ClusterId{0}, 2, 2), CheckFailure);
  ClcStore solo(ClusterId{0}, 1, 0);
  EXPECT_EQ(solo.replication(), 0u);
}

// ---------------------------------------------------------------------------
// ConsistencyLedger
// ---------------------------------------------------------------------------

TEST(Ledger, CleanRunValidates) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  EXPECT_TRUE(ledger.validate(false).empty());
}

TEST(Ledger, DetectsLostMessage) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  const auto v = ledger.validate(false);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("lost"), std::string::npos);
  EXPECT_TRUE(ledger.validate(true).empty());  // tolerated while in flight
}

TEST(Ledger, DetectsGhost) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  // Sender cluster rolls back past the send; receiver does not.
  ledger.undo_after(ClusterId{0}, mark);
  const auto v = ledger.validate(true);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("ghost"), std::string::npos);
}

TEST(Ledger, DetectsDuplicate) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(3));
  const auto v = ledger.validate(true);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("duplicate"), std::string::npos);
}

TEST(Ledger, RollbackPlusResendIsConsistent) {
  // The HC3I happy path: receiver rolls back (delivery undone), the sender
  // log re-sends, the new delivery lands.
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  const std::uint64_t mark = ledger.mark();
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  ledger.undo_after(ClusterId{1}, mark);
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(3));  // resend
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(4));
  EXPECT_TRUE(ledger.validate(false).empty());
  EXPECT_EQ(ledger.undone_events(), 1u);
}

TEST(Ledger, UndoIsScopedToOwner) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_send(2, NodeId{9}, ClusterId{1}, seconds(1));
  ledger.undo_after(ClusterId{0}, mark);
  // Only cluster 0's send is undone.
  EXPECT_EQ(ledger.undone_events(), 1u);
}

TEST(Ledger, NodeScopedUndo) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_send(2, NodeId{1}, ClusterId{0}, seconds(1));
  ledger.undo_after_node(NodeId{0}, mark);
  EXPECT_EQ(ledger.undone_events(), 1u);  // same cluster, different node kept
}

}  // namespace
}  // namespace hc3i::proto
