// Unit tests for src/net: topology lookups and network delivery semantics.

#include <gtest/gtest.h>

#include <map>

#include "config/presets.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"
#include "util/rng.hpp"

namespace hc3i::net {
namespace {

Topology make_topo(std::size_t clusters = 2, std::uint32_t nodes = 4) {
  return Topology(config::small_test_spec(clusters, nodes).topology);
}

TEST(Topology, DenseNumbering) {
  const Topology topo = make_topo(3, 5);
  EXPECT_EQ(topo.node_count(), 15u);
  EXPECT_EQ(topo.cluster_of(NodeId{0}), ClusterId{0});
  EXPECT_EQ(topo.cluster_of(NodeId{4}), ClusterId{0});
  EXPECT_EQ(topo.cluster_of(NodeId{5}), ClusterId{1});
  EXPECT_EQ(topo.cluster_of(NodeId{14}), ClusterId{2});
  EXPECT_EQ(topo.first_node(ClusterId{2}), NodeId{10});
  EXPECT_EQ(topo.cluster_size(ClusterId{1}), 5u);
}

TEST(Topology, ClusterIsDenseNodeRange) {
  // A cluster's nodes are [first_node, first_node + cluster_size): the
  // range broadcasts and the coordinator search iterate.
  const Topology topo = make_topo(2, 3);
  ASSERT_EQ(topo.first_node(ClusterId{1}), NodeId{3});
  ASSERT_EQ(topo.cluster_size(ClusterId{1}), 3u);
  for (std::uint32_t n = 3; n < 6; ++n) {
    EXPECT_EQ(topo.cluster_of(NodeId{n}), ClusterId{1}) << "node " << n;
  }
  EXPECT_EQ(topo.cluster_of(NodeId{2}), ClusterId{0});
}

TEST(Topology, LinkSelection) {
  const Topology topo = make_topo(2, 4);
  // Same cluster -> SAN latency (10us in the small spec); cross -> 150us.
  EXPECT_EQ(topo.link(NodeId{0}, NodeId{1}).latency, microseconds(10));
  EXPECT_EQ(topo.link(NodeId{0}, NodeId{4}).latency, microseconds(150));
}

TEST(Topology, RingNeighbourWraps) {
  const Topology topo = make_topo(2, 4);
  EXPECT_EQ(topo.ring_neighbour(NodeId{0}), NodeId{1});
  EXPECT_EQ(topo.ring_neighbour(NodeId{3}), NodeId{0});  // wraps in cluster 0
  EXPECT_EQ(topo.ring_neighbour(NodeId{7}), NodeId{4});  // wraps in cluster 1
  EXPECT_EQ(topo.ring_neighbour(NodeId{0}, 2), NodeId{2});
}

TEST(Topology, BadIdsThrow) {
  const Topology topo = make_topo(2, 2);
  EXPECT_THROW(topo.cluster_of(NodeId{99}), CheckFailure);
  EXPECT_THROW(topo.first_node(ClusterId{9}), CheckFailure);
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo_(make_topo()), net_(sim_, topo_, reg_) {
    for (std::uint32_t i = 0; i < topo_.node_count(); ++i) {
      net_.attach(NodeId{i}, [this, i](const Envelope& env) {
        received_.emplace_back(NodeId{i}, env);
      });
    }
  }

  Envelope app_env(NodeId src, NodeId dst, std::uint64_t bytes = 1000) {
    Envelope env;
    env.src = src;
    env.dst = dst;
    env.cls = MsgClass::kApp;
    env.payload_bytes = bytes;
    env.app_seq = next_seq_++;
    return env;
  }

  sim::Simulation sim_;
  stats::Registry reg_;
  Topology topo_;
  Network net_;
  std::vector<std::pair<NodeId, Envelope>> received_;
  std::uint64_t next_seq_{1};
};

TEST_F(NetworkTest, DeliversWithLatencyPlusSerialisation) {
  // Intra-cluster: 10us latency + wire bytes at 80Mb/s (= 10MB/s).
  // The wire size includes the 8-byte protocol piggyback.
  Envelope env = app_env(NodeId{0}, NodeId{1}, 1000);
  const std::uint64_t wire = env.wire_bytes();
  EXPECT_EQ(wire, 1008u);
  net_.send(std::move(env));
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{1});
  EXPECT_EQ(sim_.now(), microseconds(10) + nanoseconds(static_cast<int64_t>(
                            wire / 10e6 * 1e9)));
}

TEST_F(NetworkTest, AssignsUniqueIdsAndClusters) {
  const MsgId a = net_.send(app_env(NodeId{0}, NodeId{1}));
  const MsgId b = net_.send(app_env(NodeId{0}, NodeId{5}));
  EXPECT_NE(a, b);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  for (const auto& [node, env] : received_) {
    EXPECT_EQ(env.src_cluster, ClusterId{0});
    if (node == NodeId{5}) {
      EXPECT_EQ(env.dst_cluster, ClusterId{1});
    }
  }
}

TEST_F(NetworkTest, SmallMessageOvertakesLarge) {
  // The paper only assumes arbitrary finite delay; reordering is allowed
  // and the protocols must tolerate it.
  net_.send(app_env(NodeId{0}, NodeId{1}, 1'000'000));
  net_.send(app_env(NodeId{0}, NodeId{1}, 10));
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].second.payload_bytes, 10u);
}

TEST_F(NetworkTest, ParkedWhileDownDeliveredOnRevival) {
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  sim_.run_until(seconds(1));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.in_flight_count(), 1u);  // parked, not lost
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);  // the network is reliable (paper §2.1)
}

TEST_F(NetworkTest, ParkedMessagesDeliverInSendOrder) {
  // Park several messages whose arrival order differs from their send order
  // (the big head-of-line message arrives last); revival must deliver in
  // MsgId (send) order regardless.
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}, 1'000'000));  // seq 1, arrives last
  net_.send(app_env(NodeId{0}, NodeId{1}, 10));         // seq 2, arrives first
  net_.send(app_env(NodeId{2}, NodeId{1}, 500));        // seq 3
  sim_.run_until(seconds(1));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.in_flight_count(), 3u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].second.app_seq, 1u);
  EXPECT_EQ(received_[1].second.app_seq, 2u);
  EXPECT_EQ(received_[2].second.app_seq, 3u);
}

TEST_F(NetworkTest, RevivalOnlyTouchesThatNodesParkedMessages) {
  net_.set_node_down(NodeId{1});
  net_.set_node_down(NodeId{2});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{2}));
  sim_.run_until(seconds(1));
  EXPECT_EQ(net_.in_flight_count(), 2u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{1});
  EXPECT_EQ(net_.in_flight_count(), 1u);  // node 2's message still parked
  net_.set_node_up(NodeId{2});
  sim_.run_all();
  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(net_.in_flight_count(), 0u);
}

TEST_F(NetworkTest, RepeatedDownUpCyclesKeepParkingConsistent) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    net_.set_node_down(NodeId{1});
    net_.send(app_env(NodeId{0}, NodeId{1}));
    net_.send(app_env(NodeId{3}, NodeId{1}));
    sim_.run_until(sim_.now() + seconds(1));
    net_.set_node_up(NodeId{1});
    sim_.run_all();
  }
  ASSERT_EQ(received_.size(), 6u);
  for (std::size_t i = 1; i < received_.size(); ++i) {
    EXPECT_LT(received_[i - 1].second.app_seq, received_[i].second.app_seq);
  }
}

TEST_F(NetworkTest, SnapshotInFlightSeesUnarrived) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  const auto intra = net_.snapshot_in_flight(
      [](const Envelope& e) { return e.intra_cluster(); });
  EXPECT_EQ(intra.size(), 1u);
  sim_.run_all();
  EXPECT_TRUE(net_.snapshot_in_flight([](const Envelope&) { return true; })
                  .empty());
}

TEST_F(NetworkTest, DropInFlightCancelsDelivery) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  const std::size_t dropped = net_.drop_in_flight(
      [](const Envelope& e) { return e.intra_cluster(); });
  EXPECT_EQ(dropped, 1u);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{5});
}

TEST_F(NetworkTest, DropAlsoRemovesParked) {
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  sim_.run_until(seconds(1));
  EXPECT_EQ(net_.drop_in_flight([](const Envelope&) { return true; }), 1u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, PerClusterSnapshotMatchesFullFilter) {
  // Reference model: every sent envelope not yet delivered or dropped, keyed
  // (and so ordered) by MsgId.  Random traffic with nodes going down and up
  // (parked flights), rollback-style drops and steady delivery (recycled
  // slots) must leave each cluster's snapshot equal to a filter of the
  // model.
  std::map<std::uint64_t, Envelope> live;
  std::size_t seen = 0;
  std::size_t dropped = 0;
  RngStream rng(/*master_seed=*/7, /*stream_id=*/0);
  const auto n = static_cast<std::uint32_t>(topo_.node_count());
  const auto same = [](const std::vector<Envelope>& got,
                       const std::vector<const Envelope*>& want) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].id != want[i]->id || got[i].app_seq != want[i]->app_seq) {
        return false;
      }
    }
    return true;
  };
  for (int step = 0; step < 300; ++step) {
    for (std::uint64_t k = rng.next_below(4); k-- > 0;) {
      const NodeId src{static_cast<std::uint32_t>(rng.next_below(n))};
      NodeId dst{static_cast<std::uint32_t>(rng.next_below(n - 1))};
      if (dst.v >= src.v) ++dst.v;
      Envelope env = app_env(src, dst, 1 + rng.next_below(2000));
      env.src_cluster = topo_.cluster_of(src);
      env.dst_cluster = topo_.cluster_of(dst);
      Envelope copy = env;
      copy.id = net_.send(std::move(env));
      live.emplace(copy.id.v, copy);
    }
    if (rng.bernoulli(0.1)) {
      const NodeId node{static_cast<std::uint32_t>(rng.next_below(n))};
      if (net_.node_up(node)) {
        net_.set_node_down(node);
      } else {
        net_.set_node_up(node);
      }
    }
    if (rng.bernoulli(0.05)) {
      const ClusterId c{static_cast<std::uint32_t>(rng.next_below(2))};
      std::size_t expect = 0;
      for (auto it = live.begin(); it != live.end();) {
        if (it->second.src_cluster == c && it->second.intra_cluster()) {
          it = live.erase(it);
          ++expect;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(net_.drop_in_flight(
                    c, [](const Envelope& e) { return e.intra_cluster(); }),
                expect);
      dropped += expect;
    }
    sim_.run_until(sim_.now() + microseconds(50));
    for (; seen < received_.size(); ++seen) {
      ASSERT_EQ(live.erase(received_[seen].second.id.v), 1u);
    }

    ASSERT_EQ(net_.in_flight_count(), live.size());
    std::vector<const Envelope*> all;
    for (const auto& [id, env] : live) all.push_back(&env);
    EXPECT_TRUE(same(net_.snapshot_in_flight([](const Envelope&) {
                       return true;
                     }),
                     all))
        << "step " << step;
    for (std::uint32_t c = 0; c < 2; ++c) {
      std::vector<const Envelope*> want;
      for (const Envelope* e : all) {
        if (e->src_cluster.v == c) want.push_back(e);
      }
      EXPECT_TRUE(same(net_.snapshot_in_flight(
                           ClusterId{c}, [](const Envelope&) { return true; }),
                       want))
          << "step " << step << " cluster " << c;
    }
  }
  EXPECT_GT(dropped, 0u);
  for (std::uint32_t i = 0; i < n; ++i) net_.set_node_up(NodeId{i});
  sim_.run_all();
  EXPECT_EQ(net_.in_flight_count(), 0u);
  EXPECT_TRUE(net_.snapshot_in_flight(ClusterId{0}, [](const Envelope&) {
                    return true;
                  }).empty());
}

TEST_F(NetworkTest, CountsTrafficByClassAndPair) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  Envelope ctl;
  ctl.src = NodeId{0};
  ctl.dst = NodeId{2};
  ctl.cls = MsgClass::kControl;
  ctl.payload_bytes = 64;
  net_.send(std::move(ctl));
  sim_.run_all();
  EXPECT_EQ(reg_.get("net.app.intra.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.app.inter.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.ctl.intra.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.app.pair.0.1"), 1u);
  EXPECT_EQ(reg_.get("net.app.pair.0.0"), 1u);
}

TEST_F(NetworkTest, PiggybackCostsBytes) {
  Envelope env = app_env(NodeId{0}, NodeId{5}, 1000);
  env.piggy.ddv = {1, 2, 3};  // transitive extension carries the DDV
  const std::uint64_t wire = env.wire_bytes();
  EXPECT_EQ(wire, 1000 + sizeof(SeqNum) + sizeof(Incarnation) +
                      3 * sizeof(SeqNum));
}

TEST_F(NetworkTest, SendToSelfThrows) {
  EXPECT_THROW(net_.send(app_env(NodeId{0}, NodeId{0})), CheckFailure);
}

}  // namespace
}  // namespace hc3i::net
