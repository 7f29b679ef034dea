// Convergence property test for digest-based anti-entropy: for every
// causality mechanism, across seeded random workloads with partial
// replication, replica crashes/recoveries and hinted handoff, the
// digest pass (Cluster::anti_entropy_digest) must drive the cluster to
// a fixed point BYTE-IDENTICAL to a god's-eye full gather-merge-scatter
// pass over every key — while shipping state only for divergent keys.
//
// Method: the cluster makes no random choices of its own (determinism
// contract), so replaying one seeded op sequence into two fresh
// clusters yields bit-equal stores.  One cluster is repaired with the
// full pass (full_pass below: the cluster's original repair, kept here
// as the oracle), the other with the digest pass; every replica's
// every key is then compared by its full codec encoding.  Neither pass
// sends a message, so under the chaos transport both clusters replay
// their hint deliveries under the same fault draws.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "sync/key_digest.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::util::Rng;

ClusterConfig test_config() {
  ClusterConfig cfg;
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

constexpr std::size_t kKeys = 40;
constexpr std::size_t kClients = 6;
constexpr std::size_t kOps = 300;

/// One deterministic chaotic workload: partial replication, blind
/// writes, crashes, recoveries, sloppy-quorum handoff, hint delivery.
/// Identical seeds produce identical cluster states.
template <typename M>
void run_workload(Cluster<M>& cluster, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientSession<M>> sessions;
  sessions.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    sessions.emplace_back(dvv::kv::client_actor(c), cluster);
  }

  const std::size_t servers = cluster.servers();
  auto alive_count = [&] {
    std::size_t n = 0;
    for (ReplicaId r = 0; r < servers; ++r) n += cluster.replica(r).alive();
    return n;
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    // Occasionally crash or recover a server (keep a quorum alive).
    if (rng.chance(0.05)) {
      const auto r = static_cast<ReplicaId>(rng.index(servers));
      if (cluster.replica(r).alive()) {
        if (alive_count() > 3) cluster.replica(r).set_alive(false);
      } else {
        cluster.replica(r).set_alive(true);
      }
    }
    if (rng.chance(0.05)) cluster.deliver_hints();

    auto& session = sessions[rng.index(kClients)];
    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const auto pref = cluster.preference_list(key);
    std::vector<ReplicaId> alive_pref;
    for (const ReplicaId r : pref) {
      if (cluster.replica(r).alive()) alive_pref.push_back(r);
    }
    if (alive_pref.empty()) continue;

    const double kind = rng.uniform01();
    if (kind < 0.35) {
      (void)session.get(key, alive_pref[rng.index(alive_pref.size())]);
    } else if (kind < 0.55) {
      // Sloppy-quorum write: dead preference members get hints parked.
      session.put_with_handoff(key, alive_pref[rng.index(alive_pref.size())],
                               "h" + std::to_string(op));
    } else {
      // Partial replication: each non-coordinator alive member has a
      // 50% chance of receiving the write now — the divergence source.
      const ReplicaId coord = alive_pref[rng.index(alive_pref.size())];
      std::vector<ReplicaId> replicate_to;
      for (const ReplicaId r : alive_pref) {
        if (r != coord && rng.chance(0.5)) replicate_to.push_back(r);
      }
      session.put_via(key, coord, "v" + std::to_string(op), replicate_to);
    }
  }
}

/// The oracle: one full anti-entropy round as the cluster ran it before
/// digest sessions replaced it.  For every key anywhere in the cluster —
/// including keys that exist only as parked hints — the replicas in its
/// preference list gather-merge-scatter so they end up identical.
/// Parked hints on ALIVE holders are folded into the merge as extra
/// gather sources (a hint for a long-dead owner must not hide its
/// write from the cluster) and are then rewritten to the merged bytes
/// so later rounds recognize them as reconciled by digest; the hints
/// stay parked until their owner returns.  Keys whose alive
/// preference-list states already encode identically are skipped
/// (digest pre-check), so `touched` counts genuinely divergent
/// (key, replica) states — a divergence metric — and converged state
/// is never rewritten.
template <typename M>
std::size_t full_pass(Cluster<M>& cluster) {
  using Stored = typename M::Stored;
  const M& mechanism = cluster.mechanism();
  /// One parked hint: `state` lives on alive holder `holder`, intended
  /// for (possibly long-dead) `owner`.
  struct HintSource {
    ReplicaId holder;
    ReplicaId owner;
    const Stored* state;
  };
  std::set<Key> all_keys;
  // key -> hint sources in canonical (holder, owner) order.
  std::map<Key, std::vector<HintSource>> hints;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    const auto& rep = cluster.replica(r);
    for (auto& k : rep.keys()) all_keys.insert(k);
    if (!rep.alive()) continue;
    rep.for_each_hint([&](ReplicaId owner, const Key& key, const Stored& state) {
      hints[key].push_back({r, owner, &state});
    });
  }
  for (const auto& [key, sources] : hints) all_keys.insert(key);

  std::size_t touched = 0;
  for (const Key& key : all_keys) {
    const auto pref = cluster.preference_list(key);
    // Digest pre-check: all alive preference replicas hold the same
    // bytes (kMissing marking absence) and no alive holder parks a
    // differing hint -> nothing to repair.
    std::vector<std::pair<ReplicaId, dvv::sync::Digest>> owner_digests;
    bool divergent = false;
    for (ReplicaId r : pref) {
      if (!cluster.replica(r).alive()) continue;
      const Stored* s = cluster.replica(r).find(key);
      const dvv::sync::Digest d =
          s ? dvv::sync::state_digest(*s) : dvv::sync::kMissing;
      if (!owner_digests.empty() && d != owner_digests.front().second) {
        divergent = true;
      }
      owner_digests.emplace_back(r, d);
    }
    if (owner_digests.empty()) continue;  // whole preference list down

    const auto hint_it = hints.find(key);
    const bool has_hints = hint_it != hints.end();
    if (has_hints && !divergent) {
      for (const HintSource& h : hint_it->second) {
        if (dvv::sync::state_digest(*h.state) != owner_digests.front().second) {
          divergent = true;
          break;
        }
      }
    }
    if (!divergent) continue;

    // Canonical fold: alive owners in preference order, then hints in
    // (holder, owner) order — the digest pass repairs with the same
    // fold, which is what keeps the two fixed points byte-identical.
    Stored merged;
    for (const auto& [r, d] : owner_digests) {
      if (const Stored* s = cluster.replica(r).find(key)) mechanism.sync(merged, *s);
    }
    if (has_hints) {
      for (const HintSource& h : hint_it->second) mechanism.sync(merged, *h.state);
    }
    // Scatter only to replicas not already holding the merged bytes,
    // so converged copies are never rewritten and `touched` counts
    // exactly the repaired (key, replica) states.
    const dvv::sync::Digest merged_digest = dvv::sync::state_digest(merged);
    for (const auto& [r, d] : owner_digests) {
      if (d == merged_digest) continue;
      cluster.replica(r).adopt(key, merged);
      ++touched;
    }
    if (has_hints) {
      for (const HintSource& h : hint_it->second) {
        cluster.replica(h.holder).replace_hint(h.owner, key, merged);
      }
    }
  }
  return touched;
}

/// Full byte-level snapshot: every replica's every key, codec-encoded.
template <typename M>
std::map<std::pair<ReplicaId, Key>, std::string> full_state(Cluster<M>& cluster) {
  std::map<std::pair<ReplicaId, Key>, std::string> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      const auto* p = reinterpret_cast<const char*>(w.buffer().data());
      out.emplace(std::make_pair(r, key), std::string(p, w.size()));
    }
  }
  return out;
}

template <typename M>
class AntiEntropyConvergenceTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(AntiEntropyConvergenceTest, AllMechanisms);

TYPED_TEST(AntiEntropyConvergenceTest, DigestPassReachesLegacyFixedPoint) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 20120716ULL}) {
    Cluster<TypeParam> legacy(test_config(), {});
    Cluster<TypeParam> digest(test_config(), {});
    run_workload(legacy, seed);
    run_workload(digest, seed);
    ASSERT_EQ(full_state(legacy), full_state(digest))
        << "workload replay must be deterministic (seed " << seed << ")";

    // Phase 1: repair with possibly-dead replicas still down.
    full_pass(legacy);
    const auto report = digest.anti_entropy_digest();
    EXPECT_EQ(full_state(legacy), full_state(digest))
        << "fixed points diverge with dead replicas (seed " << seed << ")";

    // The digest pass must have shipped only per-key repairs, and a
    // second pass must find nothing left to ship.
    EXPECT_LE(report.stats.keys_shipped,
              report.stats.keys_compared * test_config().servers);
    EXPECT_EQ(digest.anti_entropy_digest().stats.keys_shipped, 0u)
        << "digest pass is not a fixed point (seed " << seed << ")";
    EXPECT_EQ(full_pass(legacy), 0u)
        << "full pass is not a fixed point (seed " << seed << ")";

    // Phase 2: everyone recovers, parked hints come home, repair again.
    for (ReplicaId r = 0; r < legacy.servers(); ++r) {
      legacy.replica(r).set_alive(true);
      digest.replica(r).set_alive(true);
    }
    legacy.deliver_hints();
    digest.deliver_hints();
    full_pass(legacy);
    digest.anti_entropy_digest();
    EXPECT_EQ(full_state(legacy), full_state(digest))
        << "fixed points diverge after recovery (seed " << seed << ")";

    // Convergence proper: every preference replica of every key holds
    // byte-identical state in the digest-repaired cluster.
    const auto snapshot = full_state(digest);
    for (const auto& [where, bytes] : snapshot) {
      const auto& [replica, key] = where;
      for (const ReplicaId peer : digest.preference_list(key)) {
        const auto it = snapshot.find(std::make_pair(peer, key));
        if (it == snapshot.end()) continue;  // non-owner stray
        const auto self = snapshot.find(std::make_pair(replica, key));
        ASSERT_NE(self, snapshot.end());
        EXPECT_EQ(self->second, it->second)
            << "key " << key << " differs between " << replica << " and "
            << peer << " (seed " << seed << ")";
      }
    }
  }
}

// A write that survives only as a parked hint — its owner was dead at
// write time, and both owners that accepted it crashed with no durable
// log — must be found by both passes and folded into the same bytes.
// The seeded workload above never leaves such a key behind.
TYPED_TEST(AntiEntropyConvergenceTest, HintOnlyKeyReachesTheSameBytes) {
  ClusterConfig cfg = test_config();
  // The point is LOSING the owners' copies: pin the no-durability
  // backend even when the suite runs with DVV_STORE_BACKEND=wal.
  cfg.storage.kind = dvv::store::BackendKind::kMem;
  Cluster<TypeParam> legacy(cfg, {});
  Cluster<TypeParam> digest(cfg, {});
  const Key key = "k";
  const auto pref = legacy.preference_list(key);
  for (Cluster<TypeParam>* cluster : {&legacy, &digest}) {
    cluster->replica(pref[2]).set_alive(false);  // long-dead owner
    cluster->put_with_handoff(key, pref[0], dvv::kv::client_actor(0), {}, "v");
    cluster->crash(pref[0]);
    cluster->crash(pref[1]);
    (void)cluster->recover(pref[0]);
    (void)cluster->recover(pref[1]);
    ASSERT_EQ(cluster->replica(pref[0]).find(key), nullptr);
    ASSERT_EQ(cluster->hinted_count(), 1u);
  }

  EXPECT_GT(full_pass(legacy), 0u);
  EXPECT_GT(digest.anti_entropy_digest().stats.keys_shipped, 0u);
  const auto repaired = full_state(digest);
  EXPECT_EQ(full_state(legacy), repaired) << "passes disagree on the hint";
  EXPECT_TRUE(repaired.contains(std::make_pair(pref[0], key)));
  EXPECT_TRUE(repaired.contains(std::make_pair(pref[1], key)));
}

}  // namespace
