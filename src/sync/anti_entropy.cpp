#include "sync/anti_entropy.hpp"

#include "codec/wire.hpp"

namespace dvv::sync {

namespace {

/// Wire cost of one tree hash: 8-byte digest plus its varint node index.
[[nodiscard]] std::size_t hash_wire_bytes(std::size_t node_index) noexcept {
  return sizeof(Digest) + codec::varint_size(node_index);
}

}  // namespace

void SyncStats::merge(const SyncStats& o) noexcept {
  rounds += o.rounds;
  nodes_exchanged += o.nodes_exchanged;
  keys_compared += o.keys_compared;
  keys_shipped += o.keys_shipped;
  wire_bytes += o.wire_bytes;
}

std::vector<std::size_t> diff_leaves(const MerkleTree& a, const MerkleTree& b,
                                     SyncStats& stats) {
  DVV_ASSERT_MSG(a.fanout() == b.fanout() && a.levels() == b.levels(),
                 "sync: tree geometries must match");
  // Root exchange: one round, one hash each way.
  ++stats.rounds;
  stats.nodes_exchanged += 2;
  stats.wire_bytes += 2 * hash_wire_bytes(0);
  if (a.root() == b.root()) return {};

  // Descend level by level; each level is one request/response round in
  // which both sides ship the child hashes of every still-differing node.
  std::vector<std::size_t> frontier{0};
  for (std::size_t level = 1; level <= a.levels(); ++level) {
    ++stats.rounds;
    std::vector<std::size_t> next;
    for (const std::size_t parent : frontier) {
      const std::size_t first_child = parent * a.fanout();
      for (std::size_t c = 0; c < a.fanout(); ++c) {
        const std::size_t child = first_child + c;
        stats.nodes_exchanged += 2;
        stats.wire_bytes += 2 * hash_wire_bytes(child);
        if (a.node(level, child) != b.node(level, child)) next.push_back(child);
      }
    }
    frontier = std::move(next);
    // A differing parent always has a differing child (parent hashes are
    // pure functions of the children), so the frontier cannot drain early.
    DVV_ASSERT(!frontier.empty());
  }
  return frontier;
}

DigestIndex::DigestIndex(std::size_t replicas)
    : trees_(replicas), dirty_(replicas) {}

void DigestIndex::on_key_touched(core::ActorId replica, const std::string& key) {
  DVV_ASSERT(replica < trees_.size());
  dirty_[static_cast<std::size_t>(replica)].insert(key);
}

DigestIndex::PartitionId DigestIndex::id_of(
    const std::vector<core::ActorId>& owners) {
  PartitionId id = 0x9ae16a3b2f90404fULL;
  for (const core::ActorId owner : owners) id = combine(id, mix64(owner + 1));
  return id;
}

DigestIndex::PartitionId DigestIndex::partition_id(
    const std::string& key) const {
  DVV_ASSERT_MSG(partitioner_ != nullptr, "sync: partitioner not set");
  return id_of(partitioner_(key));
}

DigestIndex::PartitionId DigestIndex::partition_of(const std::string& key) {
  DVV_ASSERT_MSG(partitioner_ != nullptr, "sync: partitioner not set");
  std::vector<core::ActorId> owners = partitioner_(key);
  const PartitionId id = id_of(owners);
  partition_owners_.emplace(id, std::move(owners));
  return id;
}

std::vector<DigestIndex::PartitionId> DigestIndex::shared_partitions(
    core::ActorId a, core::ActorId b) const {
  std::vector<PartitionId> out;
  for (const auto& [id, owners] : partition_owners_) {
    bool has_a = false;
    bool has_b = false;
    for (const core::ActorId o : owners) {
      has_a = has_a || o == a;
      has_b = has_b || o == b;
    }
    if (has_a && has_b) out.push_back(id);
  }
  return out;
}

const std::vector<core::ActorId>& DigestIndex::owners(PartitionId p) const {
  const auto it = partition_owners_.find(p);
  DVV_ASSERT_MSG(it != partition_owners_.end(), "sync: unknown partition");
  return it->second;
}

const MerkleTree& DigestIndex::tree(std::size_t replica, PartitionId p) const {
  const auto& slots = trees_.at(replica);
  const auto it = slots.find(p);
  return it == slots.end() ? empty_ : it->second;
}

MerkleTree& DigestIndex::tree_slot(std::size_t replica, PartitionId p) {
  auto& slots = trees_[replica];
  const auto it = slots.find(p);
  if (it != slots.end()) return it->second;
  return slots.emplace(p, MerkleTree{}).first->second;
}

}  // namespace dvv::sync
