#include "proto/clc_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hc3i::proto {

namespace {

// Modelled bytes of one copy of a record (replicas multiply it).
// `log_bytes` prices a part's checkpointed sender log: the image's O(1)
// aggregate on commit, a per-entry walk in the audit recount.
template <class LogBytes>
std::uint64_t copy_bytes(const ClcRecord& r, LogBytes log_bytes) {
  std::uint64_t bytes = 0;
  for (const auto& p : r.parts) {
    // Incremental captures store the touched-range delta, full captures
    // the whole state image.
    bytes += p.app.incremental ? p.app.delta_bytes : p.app.state_bytes;
    bytes += p.dedup.size() * sizeof(std::uint64_t);
    bytes += log_bytes(p.log);
  }
  for (const auto& ch : r.channel) bytes += ch.wire_bytes();
  return bytes;
}

}  // namespace

ClcStore::ClcStore(ClusterId cluster, std::uint32_t nodes,
                   std::uint32_t replication)
    : cluster_(cluster), nodes_(nodes), replication_(replication) {
  HC3I_CHECK(nodes_ >= 1, "ClcStore: empty cluster");
  HC3I_CHECK(replication_ < nodes_,
             "ClcStore: replication degree must be below cluster size");
}

void ClcStore::commit(ClcRecord rec) {
  HC3I_CHECK(rec.parts.size() == nodes_,
             "ClcStore: record must carry one part per node");
  HC3I_CHECK(records_.empty() || rec.sn > records_.back().sn,
             "ClcStore: SNs must be strictly increasing");
  HC3I_CHECK(rec.ddv.at(cluster_) == rec.sn,
             "ClcStore: own DDV entry must equal the record SN");
  rec.stored_bytes =
      copy_bytes(rec, [](const LogImage& log) { return log.wire_bytes(); }) *
      (1 + replication_);
  total_bytes_ += rec.stored_bytes;
  records_.push_back(std::move(rec));
}

const ClcRecord& ClcStore::last() const {
  HC3I_CHECK(!records_.empty(), "ClcStore: no committed CLC");
  return records_.back();
}

const ClcRecord* ClcStore::oldest_with_dep_at_least(ClusterId f,
                                                    SeqNum sn) const {
  for (const auto& r : records_) {
    if (r.ddv.at(f) >= sn) return &r;
  }
  return nullptr;
}

const ClcRecord* ClcStore::find(SeqNum sn) const {
  for (const auto& r : records_) {
    if (r.sn == sn) return &r;
  }
  return nullptr;
}

std::size_t ClcStore::truncate_after(SeqNum sn) {
  // SNs are strictly increasing, so the dropped records form a suffix.
  const auto first = std::partition_point(
      records_.begin(), records_.end(),
      [&](const ClcRecord& r) { return r.sn <= sn; });
  return erase_range(first, records_.end());
}

std::size_t ClcStore::prune_before(SeqNum min_sn) {
  // SNs are strictly increasing, so the dropped records form a prefix.
  const auto last = std::partition_point(
      records_.begin(), records_.end(),
      [&](const ClcRecord& r) { return r.sn < min_sn; });
  return erase_range(records_.begin(), last);
}

std::size_t ClcStore::erase_range(std::vector<ClcRecord>::iterator first,
                                  std::vector<ClcRecord>::iterator last) {
  for (auto it = first; it != last; ++it) total_bytes_ -= it->stored_bytes;
  const auto removed = static_cast<std::size_t>(last - first);
  records_.erase(first, last);
  return removed;
}

std::uint64_t ClcStore::chain_read_bytes(SeqNum sn,
                                         std::uint32_t node_idx) const {
  HC3I_CHECK(node_idx < nodes_, "chain_read_bytes: bad node index");
  std::size_t at = records_.size();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].sn == sn) {
      at = i;
      break;
    }
  }
  HC3I_CHECK(at < records_.size(), "chain_read_bytes: SN not retained");
  std::uint64_t total = 0;
  for (std::size_t i = at + 1; i-- > 0;) {
    const AppSnapshot& app = records_[i].parts[node_idx].app;
    if (!app.incremental) {
      total += app.state_bytes;  // the chain base: stop here
      return total;
    }
    if (i == 0) {
      // The true base was garbage-collected; the oldest retained record was
      // rebased to a full image when its predecessors were pruned.
      total += app.state_bytes;
      return total;
    }
    total += app.delta_bytes;
  }
  return total;
}

std::uint64_t ClcStore::recount_bytes() const {
  const auto walk_log = [](const LogImage& log) {
    std::uint64_t bytes = 0;
    for (const auto& e : log.entries()) bytes += e.env.wire_bytes();
    return bytes;
  };
  std::uint64_t total = 0;
  for (const auto& r : records_) {
    total += copy_bytes(r, walk_log) * (1 + replication_);
  }
  return total;
}

}  // namespace hc3i::proto
