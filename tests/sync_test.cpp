// Unit tests for the digest-based anti-entropy subsystem (src/sync):
// per-key state digests, the fixed-fanout Merkle tree, the pairwise
// tree walk, the DigestIndex dirty-key plumbing, the cluster-level
// digest session (including the ownership filter), and the background
// AAE events in the simulator.  The cross-mechanism convergence
// property lives in tests/anti_entropy_convergence_test.cpp.
#include "sync/anti_entropy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/dvv_kernel.hpp"
#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "sim/sim_store.hpp"
#include "sync/key_digest.hpp"
#include "sync/merkle.hpp"

namespace {

using dvv::core::DvvSiblings;
using dvv::core::VersionVector;
using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::DvvMechanism;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::sync::Digest;
using dvv::sync::DigestIndex;
using dvv::sync::MerkleConfig;
using dvv::sync::MerkleTree;
using dvv::sync::SyncStats;

// ---- key digests -----------------------------------------------------------

TEST(KeyDigest, EqualStatesEqualDigests) {
  DvvSiblings<std::string> a;
  DvvSiblings<std::string> b;
  a.update(0, VersionVector{}, "v");
  b.update(0, VersionVector{}, "v");
  EXPECT_EQ(dvv::sync::state_digest(a), dvv::sync::state_digest(b));
}

TEST(KeyDigest, DifferentValueDifferentDigest) {
  DvvSiblings<std::string> a;
  DvvSiblings<std::string> b;
  a.update(0, VersionVector{}, "v1");
  b.update(0, VersionVector{}, "v2");
  EXPECT_NE(dvv::sync::state_digest(a), dvv::sync::state_digest(b));
}

TEST(KeyDigest, EmptyStateIsNotMissing) {
  const DvvSiblings<std::string> empty;
  EXPECT_NE(dvv::sync::state_digest(empty), dvv::sync::kMissing);
}

TEST(KeyDigest, HashBytesDeterministicAndSpread) {
  EXPECT_EQ(dvv::sync::hash_string("abc"), dvv::sync::hash_string("abc"));
  EXPECT_NE(dvv::sync::hash_string("abc"), dvv::sync::hash_string("abd"));
  EXPECT_NE(dvv::sync::hash_string(""), dvv::sync::hash_string("a"));
}

// ---- Merkle tree -----------------------------------------------------------

TEST(MerkleTree, EmptyTreesAgree) {
  MerkleTree a;
  MerkleTree b;
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.root(), 0u);
  EXPECT_EQ(a.leaf_count(), 16u);  // default 4^2
}

TEST(MerkleTree, InsertionOrderIrrelevant) {
  MerkleTree a;
  MerkleTree b;
  for (int i = 0; i < 50; ++i) a.set("k" + std::to_string(i), 100u + i);
  for (int i = 49; i >= 0; --i) b.set("k" + std::to_string(i), 100u + i);
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.key_count(), 50u);
}

TEST(MerkleTree, SetThenEraseRestoresEmptyRoot) {
  MerkleTree t;
  t.set("k", 7);
  EXPECT_NE(t.root(), 0u);
  EXPECT_EQ(t.digest_of("k"), 7u);
  t.erase("k");
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.key_count(), 0u);
  EXPECT_EQ(t.digest_of("k"), dvv::sync::kMissing);
}

TEST(MerkleTree, UpdateChangesRoot) {
  MerkleTree t;
  t.set("k", 1);
  const Digest before = t.root();
  t.set("k", 2);
  EXPECT_NE(t.root(), before);
  t.set("k", 1);
  EXPECT_EQ(t.root(), before);  // content-only hashing: state restored
}

TEST(MerkleTree, CustomGeometry) {
  MerkleTree t(MerkleConfig{4, 3});
  EXPECT_EQ(t.fanout(), 4u);
  EXPECT_EQ(t.levels(), 3u);
  EXPECT_EQ(t.leaf_count(), 64u);
  t.set("hello", 42);
  EXPECT_NE(t.root(), 0u);
}

// ---- tree walk -------------------------------------------------------------

TEST(DiffLeaves, EqualTreesOneRoundTwoHashes) {
  MerkleTree a;
  MerkleTree b;
  for (int i = 0; i < 20; ++i) {
    a.set("k" + std::to_string(i), i);
    b.set("k" + std::to_string(i), i);
  }
  SyncStats stats;
  EXPECT_TRUE(dvv::sync::diff_leaves(a, b, stats).empty());
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.nodes_exchanged, 2u);
  EXPECT_GT(stats.wire_bytes, 0u);
}

TEST(DiffLeaves, SingleDifferingKeyFindsItsBucket) {
  MerkleTree a;
  MerkleTree b;
  for (int i = 0; i < 100; ++i) {
    a.set("k" + std::to_string(i), i);
    b.set("k" + std::to_string(i), i);
  }
  b.set("k42", 9999);
  SyncStats stats;
  const auto leaves = dvv::sync::diff_leaves(a, b, stats);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], a.bucket_of("k42"));
  // Root round plus one round per level.
  EXPECT_EQ(stats.rounds, 1u + a.levels());
  // Far fewer hashes than a full tree exchange.
  EXPECT_LT(stats.nodes_exchanged, 2 * (1 + a.fanout() * (1 + a.fanout())));
}

TEST(DiffLeaves, DisjointKeySpacesDiffer) {
  MerkleTree a;
  MerkleTree b;
  a.set("only-at-a", 1);
  b.set("only-at-b", 2);
  SyncStats stats;
  const auto leaves = dvv::sync::diff_leaves(a, b, stats);
  EXPECT_GE(leaves.size(), 1u);
}

// ---- DigestIndex -----------------------------------------------------------

TEST(DigestIndex, RefreshFoldsDirtyKeys) {
  DigestIndex index(2);
  index.set_partitioner([](const std::string&) {
    return std::vector<dvv::core::ActorId>{0, 1};
  });
  DvvSiblings<std::string> state;
  state.update(0, VersionVector{}, "v");

  index.on_key_touched(0, "k");
  EXPECT_EQ(index.dirty_count(0), 1u);
  const auto partition = index.partition_of("k");
  EXPECT_EQ(index.tree(0, partition).root(), 0u)
      << "lazy: tree untouched until refresh";

  index.refresh(0, [&](const std::string&) { return &state; });
  EXPECT_EQ(index.dirty_count(0), 0u);
  EXPECT_EQ(index.tree(0, partition).digest_of("k"),
            dvv::sync::state_digest(state));

  // Both replicas own the partition; replica 1 holds nothing yet.
  ASSERT_EQ(index.shared_partitions(0, 1).size(), 1u);
  EXPECT_EQ(index.tree(1, partition).root(), 0u);

  // A deletion (find returns null) erases the leaf entry.
  index.on_key_touched(0, "k");
  index.refresh(0, [](const std::string&) {
    return static_cast<const DvvSiblings<std::string>*>(nullptr);
  });
  EXPECT_EQ(index.tree(0, partition).root(), 0u);
}

TEST(DigestIndex, PartitionIdIsAPureRead) {
  // Shard threads route through partition_id concurrently mid-rebalance:
  // it must agree with partition_of without registering anything.
  DigestIndex index(3);
  index.set_partitioner([](const std::string& key) {
    return key == "a" ? std::vector<dvv::core::ActorId>{0, 1}
                      : std::vector<dvv::core::ActorId>{1, 2};
  });
  const auto a = index.partition_id("a");
  EXPECT_NE(a, index.partition_id("b"));
  EXPECT_EQ(index.partition_count(), 0u);
  EXPECT_EQ(index.partition_of("a"), a);
  EXPECT_EQ(index.partition_count(), 1u);
}

TEST(DigestIndex, DuplicateTouchesCollapse) {
  DigestIndex index(1);
  for (int i = 0; i < 10; ++i) index.on_key_touched(0, "hot");
  EXPECT_EQ(index.dirty_count(0), 1u);
}

// ---- cluster integration ---------------------------------------------------

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

TEST(ClusterDigestSync, PairSessionRepairsDivergedKey) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  alice.put_via(key, pref[0], "only-here", {});  // lands on pref[0] only

  const SyncStats stats = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_EQ(stats.keys_shipped, 1u);
  EXPECT_GE(stats.keys_compared, 1u);
  EXPECT_GT(stats.wire_bytes, 0u);
  EXPECT_GE(stats.rounds, 3u);  // root + descent + leaf + ship
  EXPECT_TRUE(cluster.get(key, pref[1]).found);

  // Converged pair: the next session exchanges partition roots (which
  // all agree) and never descends to key lists or state.
  const SyncStats again = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_EQ(again.keys_shipped, 0u);
  EXPECT_EQ(again.keys_compared, 0u);
  EXPECT_LT(again.wire_bytes, stats.wire_bytes);
}

TEST(ClusterDigestSync, FullDigestPassMatchesLegacyConvergence) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  ClientSession<DvvMechanism> bob(dvv::kv::client_actor(1), cluster);
  const auto pref = cluster.preference_list("k");
  alice.put_via("k", pref[0], "at-0", {});
  bob.put_via("k", pref[1], "at-1", {});

  const auto report = cluster.anti_entropy_digest();
  EXPECT_GT(report.stats.keys_shipped, 0u);
  EXPECT_GE(report.sweeps, 2u);  // repair sweep + clean verification sweep
  for (const ReplicaId r : pref) {
    EXPECT_EQ(cluster.get("k", r).values.size(), 2u) << "both siblings at " << r;
  }
  // Fixed point: another full pass ships nothing.
  EXPECT_EQ(cluster.anti_entropy_digest().stats.keys_shipped, 0u);
}

TEST(ClusterDigestSync, OwnershipFilterNeverShipsToNonOwners) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  const Key key = "k";
  const auto pref = cluster.preference_list(key);
  // Find a server outside the preference list and plant the key there.
  ReplicaId outsider = 0;
  for (ReplicaId r = 0; r < 5; ++r) {
    if (std::find(pref.begin(), pref.end(), r) == pref.end()) outsider = r;
  }
  DvvMechanism mech;
  cluster.replica(outsider).put(mech, key, outsider, dvv::kv::client_actor(9), {},
                                "stray");

  const SyncStats stats = cluster.anti_entropy_digest_pair(outsider, pref[0]);
  // The stray key's partition is owned by pref members only, so the
  // outsider's copy is never even compared, let alone shipped.
  EXPECT_EQ(stats.keys_compared, 0u);
  EXPECT_EQ(stats.keys_shipped, 0u) << "non-owner keys must not spread";
  EXPECT_FALSE(cluster.get(key, pref[0]).found);
}

TEST(ClusterDigestSync, DeadEndpointIsNoOp) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const auto pref = cluster.preference_list("k");
  alice.put_via("k", pref[0], "v", {});
  cluster.replica(pref[1]).set_alive(false);
  const SyncStats stats = cluster.anti_entropy_digest_pair(pref[0], pref[1]);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.wire_bytes, 0u);
}

TEST(ClusterDigestSync, MerkleTreeViewTracksReplicaContents) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const auto pref = cluster.preference_list("k");
  EXPECT_EQ(cluster.merkle_tree_for(pref[0], "k").key_count(), 0u);
  alice.put("k", "v");  // fully replicated
  EXPECT_EQ(cluster.merkle_tree_for(pref[0], "k").key_count(), 1u);
  EXPECT_EQ(cluster.merkle_tree_for(pref[0], "k").root(),
            cluster.merkle_tree_for(pref[1], "k").root());
}

// Regression (read-repair write-back satellite): duplicate replication
// deliveries and repair write-backs of byte-identical state must not
// dirty the Merkle trees or generate anti-entropy traffic.  The skip is
// byte-exact inside Replica (merge_key / adopt), so a converged cluster
// stays wire-silent no matter how often state is re-delivered.
TEST(ClusterDigestSync, ConvergedRedeliveryDoesNotDirtyTreesOrShipRepairs) {
  Cluster<DvvMechanism> cluster(small_config(), {});
  ClientSession<DvvMechanism> alice(dvv::kv::client_actor(0), cluster);
  const Key key = "k";
  alice.put(key, "v");  // fully replicated: converged
  const auto pref = cluster.preference_list(key);

  cluster.anti_entropy_digest();  // absorb the initial dirty set
  const auto clean = cluster.anti_entropy_digest().stats;
  EXPECT_EQ(clean.keys_shipped, 0u);

  // Duplicate deliveries: the exact bytes every replica already holds.
  const auto& mech = cluster.mechanism();
  const auto* fresh = cluster.replica(pref[0]).find(key);
  ASSERT_NE(fresh, nullptr);
  for (int i = 0; i < 3; ++i) {
    cluster.replica(pref[1]).merge_key(mech, key, *fresh);
    cluster.replica(pref[2]).merge_key(mech, key, *fresh);
  }
  for (const ReplicaId r : pref) {
    EXPECT_EQ(cluster.aae_dirty_count(r), 0u)
        << "identical redelivery dirtied the tree at " << r;
  }

  // And the wire stays as quiet as a never-touched converged cluster.
  const auto after = cluster.anti_entropy_digest().stats;
  EXPECT_EQ(after.keys_shipped, 0u);
  EXPECT_EQ(after.wire_bytes, clean.wire_bytes)
      << "AAE wire bytes must not grow after no-op redeliveries";
}

// ---- simulator integration -------------------------------------------------

TEST(SimStoreAae, BackgroundRepairRunsAndWorkloadCompletes) {
  dvv::sim::SimStoreConfig cfg;
  cfg.clients = 8;
  cfg.keys = 32;
  cfg.ops_per_client = 40;
  cfg.seed = 7;
  cfg.aae_interval_ms = 5.0;
  const auto result = dvv::sim::simulate_store(cfg);
  EXPECT_EQ(result.cycles, cfg.clients * cfg.ops_per_client);
  EXPECT_GT(result.aae_sessions, 0u);
  EXPECT_GT(result.aae_stats.rounds, 0u);
  EXPECT_EQ(result.aae_session_bytes.count(), result.aae_sessions);
}

TEST(SimStoreAae, DisabledByDefault) {
  dvv::sim::SimStoreConfig cfg;
  cfg.clients = 4;
  cfg.keys = 16;
  cfg.ops_per_client = 10;
  cfg.seed = 7;
  const auto result = dvv::sim::simulate_store(cfg);
  EXPECT_EQ(result.aae_sessions, 0u);
  EXPECT_EQ(result.aae_stall_ms.count(), 0u);
}

TEST(SimStoreAae, DeterministicAcrossRuns) {
  dvv::sim::SimStoreConfig cfg;
  cfg.clients = 6;
  cfg.keys = 24;
  cfg.ops_per_client = 25;
  cfg.seed = 99;
  cfg.aae_interval_ms = 3.0;
  const auto r1 = dvv::sim::simulate_store(cfg);
  const auto r2 = dvv::sim::simulate_store(cfg);
  EXPECT_EQ(r1.aae_sessions, r2.aae_sessions);
  EXPECT_EQ(r1.aae_stats.wire_bytes, r2.aae_stats.wire_bytes);
  EXPECT_DOUBLE_EQ(r1.sim_duration_ms, r2.sim_duration_ms);
}

}  // namespace
