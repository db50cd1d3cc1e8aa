#include "net/topology.hpp"

#include <algorithm>

namespace hc3i::net {

Topology::Topology(config::TopologySpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  first_.reserve(spec_.cluster_count());
  std::uint32_t next = 0;
  for (const auto& c : spec_.clusters) {
    first_.push_back(next);
    next += c.nodes;
  }
  total_nodes_ = next;
}

std::uint32_t Topology::cluster_size(ClusterId c) const {
  HC3I_CHECK(c.v < spec_.cluster_count(), "cluster_size: bad cluster id");
  return spec_.clusters[c.v].nodes;
}

ClusterId Topology::cluster_of(NodeId n) const {
  HC3I_CHECK(n.v < total_nodes_, "cluster_of: bad node id");
  // first_ is sorted; find the last cluster whose first node is <= n.
  const auto it = std::upper_bound(first_.begin(), first_.end(), n.v);
  return ClusterId{static_cast<std::uint32_t>(it - first_.begin() - 1)};
}

NodeId Topology::first_node(ClusterId c) const {
  HC3I_CHECK(c.v < first_.size(), "first_node: bad cluster id");
  return NodeId{first_[c.v]};
}

const config::LinkSpec& Topology::link(NodeId a, NodeId b) const {
  const ClusterId ca = cluster_of(a), cb = cluster_of(b);
  if (ca == cb) return spec_.clusters[ca.v].san;
  return spec_.inter_link(ca, cb);
}

NodeId Topology::ring_neighbour(NodeId n, std::uint32_t distance) const {
  const ClusterId c = cluster_of(n);
  const std::uint32_t base = first_node(c).v;
  const std::uint32_t size = cluster_size(c);
  HC3I_CHECK(size > 1 || distance % size == 0,
             "ring_neighbour: single-node cluster has no distinct neighbour");
  return NodeId{base + (n.v - base + distance) % size};
}

}  // namespace hc3i::net
