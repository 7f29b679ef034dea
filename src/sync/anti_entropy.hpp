// dvv/sync/anti_entropy.hpp
//
// Digest-based anti-entropy: the protocol layer that repairs replica
// divergence by shipping hashes first and state only where the hashes
// disagree — the paper's "pay only for actual concurrency" principle
// applied to replica repair instead of per-request metadata.
//
// Three pieces:
//
//   DigestIndex   per-(replica, partition) Merkle trees plus the
//                 dirty-key sets fed by the kv layer's KeyObserver
//                 hook; refresh() folds pending mutations into the
//                 trees incrementally.  A partition is an owner set —
//                 the keys sharing one preference list — so two
//                 replicas only ever compare trees over keys they BOTH
//                 own (Riak hashes per vnode for the same reason:
//                 whole-store trees would always differ just because
//                 the stores overlap partially).
//
//   SyncSession   one pairwise anti-entropy exchange: walk both trees
//                 top-down, descend only into differing subtrees, swap
//                 (key, digest) lists at differing leaves, and trigger
//                 repair for exactly the keys that differ.  Reports
//                 {rounds, nodes, keys_compared, keys_shipped,
//                 wire_bytes} with every byte metered through the same
//                 codec sizes the replication path uses.
//
//   Repair rule   a differing key is repaired read-repair style across
//                 its whole preference list (injected callback): gather
//                 every alive owner's state, fold it into an empty
//                 Stored in preference-list order, scatter the merge.
//                 Folding original states in preference order is
//                 exactly what a full gather-merge-scatter pass does
//                 per key, and a repaired key never diverges again
//                 within the pass, so each key is folded at most once
//                 from its pre-repair states — the digest fixed point
//                 is byte-identical to the full pass's (every kernel's
//                 sync() keeps survivors in deterministic (mine,
//                 theirs) order).  tests/anti_entropy_convergence_test
//                 .cpp checks this for every mechanism against that
//                 full pass, kept there as the oracle.
//
// Determinism: no randomness anywhere in this subsystem.  Which pairs
// sync and when is the caller's choice (driven by its seeded Rng);
// identical stores always produce identical trees, walks and stats.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sync/key_digest.hpp"
#include "sync/key_observer.hpp"
#include "sync/merkle.hpp"
#include "util/assert.hpp"

namespace dvv::sync {

/// Wire/effort accounting for one or more sessions.
struct SyncStats {
  std::size_t rounds = 0;           ///< message round trips
  std::size_t nodes_exchanged = 0;  ///< tree hashes shipped (both directions)
  std::size_t keys_compared = 0;    ///< distinct keys whose digests crossed
  std::size_t keys_shipped = 0;     ///< keys repaired by shipping Stored state
  std::size_t wire_bytes = 0;       ///< total bytes on the wire

  void merge(const SyncStats& o) noexcept;
};

/// Tree walk of one session: exchanges the root, descends into differing
/// subtrees level by level, and returns the differing leaf buckets.
/// Accounts every exchanged hash in `stats`.  Both trees must share a
/// geometry.
[[nodiscard]] std::vector<std::size_t> diff_leaves(const MerkleTree& a,
                                                   const MerkleTree& b,
                                                   SyncStats& stats);

/// Per-(replica, partition) Merkle trees + dirty-key tracking.
/// Implements the kv layer's KeyObserver so replicas can mark keys
/// dirty on every mutation; digests are recomputed lazily in refresh().
/// The partitioner callback maps a key to its owner set (the cluster's
/// preference list); keys sharing an owner set share a tree.
class DigestIndex final : public KeyObserver {
 public:
  using PartitionId = std::uint64_t;
  using Partitioner =
      std::function<std::vector<core::ActorId>(const std::string& key)>;

  DigestIndex() = default;
  explicit DigestIndex(std::size_t replicas);

  /// Must be set before the first refresh().
  void set_partitioner(Partitioner partitioner) {
    partitioner_ = std::move(partitioner);
  }

  void on_key_touched(core::ActorId replica, const std::string& key) override;

  /// Folds `replica`'s dirty keys into its partition trees.  `find(key)`
  /// returns the replica's current Stored* (null when the key is absent).
  template <typename FindFn>
  void refresh(std::size_t replica, FindFn&& find) {
    DVV_ASSERT(replica < trees_.size());
    for (const std::string& key : dirty_[replica]) {
      MerkleTree& tree = tree_slot(replica, partition_of(key));
      if (const auto* stored = find(key)) {
        tree.set(key, state_digest(*stored));
      } else {
        tree.erase(key);
      }
    }
    dirty_[replica].clear();
  }

  /// Partition ids whose owner set contains both `a` and `b`, in
  /// deterministic (id) order — the partitions a pairwise session must
  /// compare.  Only partitions that have ever held a key appear.
  [[nodiscard]] std::vector<PartitionId> shared_partitions(core::ActorId a,
                                                           core::ActorId b) const;

  /// The partition's owner set as registered by the partitioner.
  [[nodiscard]] const std::vector<core::ActorId>& owners(PartitionId p) const;

  /// `replica`'s tree for partition `p`; an empty tree when the replica
  /// holds no key of that partition yet.
  [[nodiscard]] const MerkleTree& tree(std::size_t replica, PartitionId p) const;

  /// Partition id for `key` (registers the partition on first sight).
  [[nodiscard]] PartitionId partition_of(const std::string& key);

  /// Partition id for `key` without registering it: a pure read, safe
  /// from several threads at once while the partitioner's ring is fixed.
  [[nodiscard]] PartitionId partition_id(const std::string& key) const;

  [[nodiscard]] std::size_t dirty_count(std::size_t replica) const {
    return dirty_.at(replica).size();
  }
  [[nodiscard]] std::size_t replicas() const noexcept { return trees_.size(); }
  [[nodiscard]] std::size_t partition_count() const noexcept {
    return partition_owners_.size();
  }

 private:
  [[nodiscard]] static PartitionId id_of(
      const std::vector<core::ActorId>& owners);
  [[nodiscard]] MerkleTree& tree_slot(std::size_t replica, PartitionId p);

  Partitioner partitioner_;
  std::vector<std::map<PartitionId, MerkleTree>> trees_;  // per replica
  std::vector<std::set<std::string>> dirty_;  // sorted: deterministic refresh
  std::map<PartitionId, std::vector<core::ActorId>> partition_owners_;
  MerkleTree empty_{};  // shared stand-in for "no keys of this partition"
};

/// Wire cost and outcome of repairing one divergent key.
struct RepairResult {
  std::size_t states_shipped = 0;  ///< Stored states that crossed the wire
  std::size_t wire_bytes = 0;
};

/// One pairwise anti-entropy session.  The repair action is injected so
/// the subsystem stays below the kv layer: the cluster passes a lambda
/// that performs the preference-list-wide read-repair and meters its
/// wire traffic (returning {0, 0} for keys the pair does not own).
class SyncSession {
 public:
  /// Repairs `key` after endpoints `a` and `b` disagreed on its digest.
  using Repair =
      std::function<RepairResult(const std::string& key, core::ActorId a,
                                 core::ActorId b)>;

  explicit SyncSession(Repair repair) : repair_(std::move(repair)) {}

  /// Runs one full session between replicas `a` and `b`, whose trees
  /// must already be refreshed: root exchange, subtree descent,
  /// (key, digest) list exchange at differing leaves, repair of every
  /// key whose digests differ (or that one side lacks).
  SyncStats run(core::ActorId a, const MerkleTree& ta, core::ActorId b,
                const MerkleTree& tb) {
    SyncStats stats;
    const std::vector<std::size_t> leaves = diff_leaves(ta, tb, stats);
    if (leaves.empty()) return note(a, b, stats);

    // Leaf round: both sides ship their (key, digest) lists for every
    // differing bucket; the union is the compared set, the mismatches
    // become repair candidates.
    ++stats.rounds;
    std::vector<std::string> candidates;
    for (const std::size_t leaf : leaves) {
      const MerkleTree::Bucket& ba = ta.bucket(leaf);
      const MerkleTree::Bucket& bb = tb.bucket(leaf);
      for (const auto& [key, digest] : ba) {
        (void)digest;
        stats.wire_bytes += key_digest_wire_bytes(key);
      }
      for (const auto& [key, digest] : bb) {
        (void)digest;
        stats.wire_bytes += key_digest_wire_bytes(key);
      }
      auto ia = ba.begin();
      auto ib = bb.begin();
      while (ia != ba.end() || ib != bb.end()) {
        ++stats.keys_compared;
        if (ib == bb.end() || (ia != ba.end() && ia->first < ib->first)) {
          candidates.push_back((ia++)->first);
        } else if (ia == ba.end() || ib->first < ia->first) {
          candidates.push_back((ib++)->first);
        } else {
          if (ia->second != ib->second) candidates.push_back(ia->first);
          ++ia;
          ++ib;
        }
      }
    }

    // Repair round: ship state for exactly the keys that differ.
    bool shipped_any = false;
    for (const std::string& key : candidates) {
      const RepairResult repaired = repair_(key, a, b);
      if (repaired.states_shipped == 0) continue;  // e.g. non-owner stray
      ++stats.keys_shipped;
      stats.wire_bytes += repaired.wire_bytes;
      shipped_any = true;
    }
    if (shipped_any) ++stats.rounds;
    return note(a, b, stats);
  }

 private:
  /// Folds one session's accounting into the process-wide aae.* catalog
  /// and drops a flight-recorder span (trace id = packed endpoint pair).
  static SyncStats note(core::ActorId a, core::ActorId b,
                        const SyncStats& stats) {
    obs::AaeMetrics& m = obs::aae_metrics();
    m.sessions.inc();
    m.rounds.inc(stats.rounds);
    m.nodes_exchanged.inc(stats.nodes_exchanged);
    m.keys_compared.inc(stats.keys_compared);
    m.keys_shipped.inc(stats.keys_shipped);
    m.wire_bytes.inc(stats.wire_bytes);
    obs::flight().record("aae", "session",
                         (static_cast<std::uint64_t>(a) << 32) |
                             static_cast<std::uint64_t>(b),
                         stats.keys_compared, stats.keys_shipped,
                         stats.wire_bytes);
    return stats;
  }

  [[nodiscard]] static std::size_t key_digest_wire_bytes(const std::string& key) {
    return codec::varint_size(key.size()) + key.size() + sizeof(Digest);
  }

  Repair repair_;
};

}  // namespace dvv::sync
