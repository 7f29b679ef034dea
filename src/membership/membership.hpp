// dvv/membership/membership.hpp
//
// Elastic ring membership: node join, graceful leave and crash-removal
// as first-class, versioned cluster transitions (ROADMAP item 3).
//
// The model
// ---------
// A MembershipTable holds a totally ordered sequence of RingEpochs.
// Every membership change — join, leave, remove — MINTS a new epoch
// carrying a fresh Ring snapshot over the new member list (the
// vnode→owner map; see kv/ring.hpp for why a member's vnode points are
// stable across epochs, which is what makes the movement minimal).
// Epochs are immutable once minted: routing questions are answered
// against a snapshot, never against mutating state.
//
// Rebalancing
// -----------
// Minting an epoch does NOT flip routing.  The RebalanceEngine tracks,
// per (partition, new owner), a transfer task through
//
//     kPending -> kTransferring -> kOwned
//
// A task reaches kOwned only after the new owner's Merkle tree for the
// partition has been walked against EVERY other member (the old owners
// among them) — bytes proportional to divergence, digests only when
// already converged — so flipping the partition's routing can never
// strand data on a replica the steady-state AAE no longer repairs
// (repair_key only folds between CURRENT preference members).  Until
// the flip, writes dual-apply: the old owners keep serving while the
// new owner catches up.  The cluster (kv/cluster.hpp) drives the walks;
// this engine owns the bookkeeping: which sources remain per task, when
// a task completes, and the transfer wire accounting that must stay
// separate from steady-state aae.* metering.
//
// A membership change arriving mid-rebalance SUPERSEDES the plan: the
// engine is re-planned against the newest epoch and flip progress is
// discarded.  Nothing is ever deleted from a replica, so a discarded
// plan loses no data — only the routing flip is deferred.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "kv/ring.hpp"
#include "kv/types.hpp"

namespace dvv::membership {

/// One immutable membership version: the epoch number and the ring
/// (vnode→owner map) routing decisions are answered against.
struct RingEpoch {
  std::uint64_t epoch = 0;
  kv::Ring ring;

  RingEpoch(std::uint64_t e, kv::Ring r) : epoch(e), ring(std::move(r)) {}
};

/// The versioned member list.  Starts at epoch 0 with the seed members;
/// every change appends a new epoch.  The table never forgets an epoch:
/// the rejoin check (was_member) and the tests name old versions.
class MembershipTable {
 public:
  MembershipTable(std::vector<kv::ReplicaId> seed_members,
                  std::size_t replication, std::size_t vnodes);

  [[nodiscard]] const RingEpoch& current() const noexcept {
    return epochs_.back();
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return current().epoch;
  }
  [[nodiscard]] const std::vector<kv::ReplicaId>& members() const noexcept {
    return current().ring.members();
  }
  [[nodiscard]] bool is_member(kv::ReplicaId r) const noexcept {
    return current().ring.is_member(r);
  }
  [[nodiscard]] std::size_t replication() const noexcept { return replication_; }

  /// Epoch `e` (asserts it exists — epochs are dense from 0).
  [[nodiscard]] const RingEpoch& at(std::uint64_t e) const;

  /// True when `node` was a member of SOME past epoch but is not one
  /// now — a joining id with history must pass through the clock
  /// incarnation bump so its pre-departure dots are never reused.
  [[nodiscard]] bool was_member(kv::ReplicaId node) const noexcept {
    return ever_members_.contains(node) && !is_member(node);
  }

  /// Mints the next epoch with `node` added.  Asserts non-membership.
  const RingEpoch& join(kv::ReplicaId node);

  /// Mints the next epoch with `node` removed (graceful leave and
  /// crash-removal share the placement math; the cluster layers the
  /// different data-safety story on top).  Asserts membership and that
  /// at least `replication` members remain.
  const RingEpoch& leave(kv::ReplicaId node);

 private:
  const RingEpoch& mint(std::vector<kv::ReplicaId> members);

  std::size_t replication_;
  std::size_t vnodes_;
  std::vector<RingEpoch> epochs_;
  std::set<kv::ReplicaId> ever_members_;
};

/// Transfer lifecycle of one (partition, new owner) claim.
enum class TransferState : std::uint8_t {
  kPending,       ///< planned, no walk attempted yet
  kTransferring,  ///< some sources walked, some still owed
  kOwned,         ///< walked against every source; routing may flip
};

/// Wire/work accounting for one transfer task (and, summed, for a whole
/// rebalance).  Kept apart from sync::SyncStats on purpose: transfer
/// traffic must not pollute the steady-state aae.* series.
struct TransferStats {
  std::uint64_t rounds = 0;          ///< tree-walk rounds
  std::uint64_t nodes_exchanged = 0; ///< Merkle nodes crossed
  std::uint64_t keys_shipped = 0;    ///< states merged into the new owner
  std::uint64_t wire_bytes = 0;      ///< digests + shipped states

  void merge(const TransferStats& o) noexcept {
    rounds += o.rounds;
    nodes_exchanged += o.nodes_exchanged;
    keys_shipped += o.keys_shipped;
    wire_bytes += o.wire_bytes;
  }
};

/// One claimed partition's transfer task.
struct PartitionTransfer {
  std::uint64_t partition = 0;
  kv::ReplicaId owner = 0;
  TransferState state = TransferState::kPending;
  std::set<kv::ReplicaId> pending_sources;  ///< members still to walk
  TransferStats stats;
};

/// Aggregate rebalance progress, exposed through the kv::Store facade.
struct RebalanceStats {
  std::uint64_t epoch = 0;  ///< target epoch (0 = never rebalanced)
  std::uint64_t transfers_planned = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t partitions_flipped = 0;
  TransferStats totals;
  bool rebalancing = false;
};

/// Bookkeeping for one epoch's rebalance.  The cluster performs the
/// actual Merkle walks and reports back; the engine decides when a
/// partition may flip and when the whole plan is done.
class RebalanceEngine {
 public:
  /// Replaces any in-progress plan (supersede semantics) with transfer
  /// tasks toward `target_epoch`.  Each task lists the sources the new
  /// owner must be walked against before its partition flips.
  void plan(std::uint64_t target_epoch, std::vector<PartitionTransfer> tasks);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t target_epoch() const noexcept { return epoch_; }

  /// (partition, owner, source) triples still owed a walk.
  struct Work {
    std::uint64_t partition;
    kv::ReplicaId owner;
    kv::ReplicaId source;
  };
  [[nodiscard]] std::vector<Work> pending_work() const;

  /// Records one completed walk.  Returns true when this walk completed
  /// its task (state reached kOwned).
  bool note_walked(std::uint64_t partition, kv::ReplicaId owner,
                   kv::ReplicaId source, const TransferStats& cost);

  /// Partitions whose every task reached kOwned since the last call —
  /// the cluster flips their routing.
  [[nodiscard]] std::vector<std::uint64_t> take_flippable();

  /// True once every task is kOwned (the cluster then promotes the
  /// target ring to active and retires the plan via finish()).
  [[nodiscard]] bool complete() const noexcept;
  void finish();

  [[nodiscard]] const std::vector<PartitionTransfer>& transfers() const noexcept {
    return transfers_;
  }
  [[nodiscard]] const RebalanceStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] PartitionTransfer* find(std::uint64_t partition,
                                        kv::ReplicaId owner);

  bool active_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<PartitionTransfer> transfers_;
  std::set<std::uint64_t> flippable_;       ///< ready, not yet taken
  std::set<std::uint64_t> flipped_;         ///< taken by the cluster
  RebalanceStats stats_;
};

}  // namespace dvv::membership
