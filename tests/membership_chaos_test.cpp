// Elastic-membership chaos suite: the ISSUE's headline proof.
//
// Claim: a cluster that lives through a JOIN/LEAVE STORM — seven
// membership transitions riding on top of seeded partition/drop/
// duplicate/reorder weather — converges, once the network quiesces and
// the last rebalance completes, to a state BYTE-IDENTICAL to a twin
// that spent its whole life on the final ring with a perfect network.
//
// The choreography keeps client decisions independent of both the
// weather AND the ring history: every key's reads and writes are
// coordinated at the FINAL ring's slot-0 owner (a provisioned replica
// exists from the start, so coordinating there is mechanical even
// before it joins).  Every replica copy therefore descends from its
// coordinator's history, and every repair channel — replication
// fan-out, transfer walks, digest anti-entropy — merges dominated
// states, which a sound clock absorbs without a trace.  Whatever byte
// of divergence the storm created, rebalancing plus anti-entropy must
// erase it; transfers are additionally metered so the test can prove
// data actually MOVED (the storm was not vacuous).
//
// Server-VV is exempt from the byte-twin claim, as in
// transport_chaos_test.cpp: it falsely orders racing clients, so which
// sibling survives depends on delivery order.  It must still converge
// INTERNALLY (same bytes on every final owner of a key).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "kv/ring.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::kv::Ring;
using dvv::net::SimTransport;
using dvv::util::Rng;

constexpr std::size_t kCapacity = 8;
constexpr std::size_t kReplication = 3;
constexpr std::size_t kVnodes = 32;
constexpr std::size_t kKeys = 24;
constexpr std::size_t kClients = 5;
constexpr std::size_t kOps = 500;

// The storm script: deterministic transitions at fixed op indices.
// Starts on {0,1,2,3}, ends on {3,4,5,6,7} — every kind of transition
// (grow, shrink, grow again) and every departure is graceful, so no
// acknowledged write may be lost.  No slot REJOINS here: a rejoin bumps
// the clock incarnation, which is a deliberate actor change the
// byte-twin cannot mirror (membership_test.cpp pins that behavior).
struct Transition {
  std::size_t at;  ///< before the op with this index
  bool join;
  ReplicaId node;
};
constexpr Transition kStorm[] = {
    {60, true, 4},  {120, true, 5},  {180, false, 0}, {240, true, 6},
    {300, false, 1}, {360, true, 7}, {420, false, 2},
};
const std::vector<ReplicaId> kInitialMembers = {0, 1, 2, 3};
const std::vector<ReplicaId> kFinalMembers = {3, 4, 5, 6, 7};

ClusterConfig storm_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.servers = kCapacity;
  cfg.capacity = kCapacity;
  cfg.initial_members = kInitialMembers;
  cfg.replication = kReplication;
  cfg.vnodes = kVnodes;
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  cfg.transport.sim.seed = seed ^ 0xfa417ULL;
  cfg.transport.sim.drop_probability = 0.10;
  cfg.transport.sim.duplicate_probability = 0.15;
  cfg.transport.sim.reorder_window = 4;
  cfg.transport.sim.auto_settle = false;  // real in-flight windows
  return cfg;
}

ClusterConfig static_twin_config() {
  ClusterConfig cfg;
  cfg.servers = kCapacity;
  cfg.capacity = kCapacity;
  cfg.initial_members = kFinalMembers;  // born on the storm's final ring
  cfg.replication = kReplication;
  cfg.vnodes = kVnodes;
  cfg.transport.kind = dvv::net::TransportKind::kInline;
  cfg.transport.sim = dvv::net::SimTransportConfig{};
  return cfg;
}

/// The seeded workload, identical on both sides: read-modify-write and
/// blind writes, every key coordinated (and read) at the FINAL ring's
/// slot-0 owner.  `storm` additionally pumps, partitions, heals, fires
/// background syncs, and executes the scripted membership transitions
/// (each preceded by a heal + drain — an operator acts at a healthy
/// moment — and completed inline).  Returns the keys the rebalances
/// shipped, so the caller can assert the storm actually moved data.
template <typename M>
std::uint64_t run_storm(Cluster<M>& cluster, std::uint64_t seed, bool storm) {
  const Ring final_ring(kFinalMembers, kReplication, kVnodes);
  Rng rng(seed);
  Rng net_rng(seed ^ 0x9e37ULL);  // weather stream, shared schedule
  using Context = typename M::Context;
  std::map<std::pair<std::size_t, Key>, Context> contexts;
  std::uint64_t keys_shipped = 0;
  std::size_t next_transition = 0;

  for (std::size_t op = 0; op < kOps; ++op) {
    // The weather schedule draws from its own stream on BOTH sides so
    // the client-visible stream below stays in lockstep; the twin just
    // ignores the decisions.
    const bool do_partition = net_rng.chance(0.04);
    const bool do_heal = net_rng.chance(0.10);
    const bool do_pump = net_rng.chance(0.50);
    const bool do_sync = net_rng.chance(0.08);
    const auto sync_a = static_cast<ReplicaId>(net_rng.index(kCapacity));
    auto sync_b = static_cast<ReplicaId>(net_rng.index(kCapacity - 1));
    if (sync_b >= sync_a) ++sync_b;
    const auto groups = dvv::net::random_split<ReplicaId>(net_rng, kCapacity);

    if (storm) {
      if (next_transition < std::size(kStorm) &&
          kStorm[next_transition].at == op) {
        // Heal and drain first: a transition needs every transfer
        // source reachable, and completing it inline keeps the next
        // op routing on the new ring.
        cluster.heal();
        cluster.pump_all();
        const Transition& t = kStorm[next_transition++];
        if (t.join) {
          cluster.join_node(t.node);
        } else {
          cluster.leave_node(t.node);
        }
        keys_shipped += cluster.complete_rebalance().totals.keys_shipped;
      }
      if (do_partition && !cluster.transport().partitioned()) {
        cluster.partition(groups, "storm");
      } else if (do_heal && cluster.transport().partitioned()) {
        cluster.heal();
      }
      if (do_pump) cluster.pump();
      if (do_sync) (void)cluster.anti_entropy_digest_pair(sync_a, sync_b);
    }

    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const ReplicaId coordinator = final_ring.preference_list(key)[0];
    const std::size_t client = rng.index(kClients);
    const bool rmw = rng.chance(0.7);
    Context ctx{};
    if (rmw) {
      // Read at the coordinator itself: the context reflects exactly
      // the coordinator's state, which neither the weather nor the
      // ring history can touch (see the file comment).
      ctx = cluster.get(key, coordinator).context;
      contexts[{client, key}] = ctx;
    }
    // Fan out to the CURRENT ring's owners (plus dual-apply targets
    // mid-transfer — vacuous here, transitions complete inline): the
    // storm side replicates where the data lives today, the transfers
    // and the final digest pass are what carry it to the final owners.
    cluster.put(key, coordinator, dvv::kv::client_actor(client), ctx,
                "w" + std::to_string(op), cluster.replication_targets(key));
  }
  return keys_shipped;
}

/// Quiesce: zero fault rates, heal, drain, then drive the digest pass
/// to its fixed point.
template <typename M>
void quiesce(Cluster<M>& cluster) {
  auto* sim = dynamic_cast<SimTransport*>(&cluster.transport());
  if (sim != nullptr) sim->set_fault_rates(0.0, 0.0, 0);
  cluster.heal();
  cluster.pump_all();
  for (std::size_t round = 0; round < 8; ++round) {
    if (cluster.anti_entropy_digest().stats.keys_shipped == 0) break;
  }
}

/// Byte-level snapshot of one replica's state for `key` (nullopt when
/// the replica holds nothing — compared as such: an owner missing a
/// key its twin holds is divergence too).
template <typename M>
std::optional<std::string> encoded(Cluster<M>& cluster, ReplicaId r,
                                   const Key& key) {
  const auto* stored = cluster.replica(r).find(key);
  if (stored == nullptr) return std::nullopt;
  dvv::codec::Writer w;
  dvv::codec::encode(w, *stored);
  const auto* p = reinterpret_cast<const char*>(w.buffer().data());
  return std::string(p, w.size());
}

template <typename M>
class MembershipChaosTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(MembershipChaosTest, AllMechanisms);

TYPED_TEST(MembershipChaosTest, StormConvergesToStaticRingTwin) {
  const Ring final_ring(kFinalMembers, kReplication, kVnodes);
  for (const std::uint64_t seed : {7ULL, 123ULL, 20120716ULL}) {
    Cluster<TypeParam> stormed(storm_config(seed), {});
    Cluster<TypeParam> twin(static_twin_config(), {});
    const std::uint64_t shipped = run_storm(stormed, seed, /*storm=*/true);
    (void)run_storm(twin, seed, /*storm=*/false);

    // The storm must have actually happened: every transition ran,
    // transfers moved real data, and the network genuinely misbehaved.
    ASSERT_EQ(stormed.ring_epoch(), std::size(kStorm)) << "seed " << seed;
    ASSERT_EQ(stormed.members(), kFinalMembers);
    ASSERT_EQ(twin.ring_epoch(), 0u);
    ASSERT_GT(shipped, 0u) << "rebalances shipped nothing (seed " << seed << ")";
    const auto& stats = stormed.transport().stats();
    ASSERT_GT(stats.dropped, 0u) << "seed " << seed;
    ASSERT_GT(stats.duplicated, 0u);

    quiesce(stormed);
    quiesce(twin);

    // Sound mechanisms: every key reads byte-identically at every
    // FINAL owner on both sides.  Replicas outside the final
    // preference list are legitimately different — departed members
    // keep their (drained, superseded) copies and the twin never
    // wrote there — so the comparison is per final owner, not global.
    constexpr bool kSoundUnderChaos =
        !std::is_same_v<TypeParam, dvv::kv::ServerVvMechanism>;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const Key key = "key-" + std::to_string(k);
      const auto owners = final_ring.preference_list(key);
      if constexpr (kSoundUnderChaos) {
        for (const ReplicaId r : owners) {
          EXPECT_EQ(encoded(stormed, r, key), encoded(twin, r, key))
              << "key " << key << " at replica " << r
              << " diverges from the static-ring twin (seed " << seed << ")";
        }
      }
      // Every mechanism, sound or not, must still converge INTERNALLY
      // across the final owners.
      for (const ReplicaId r : owners) {
        EXPECT_EQ(encoded(stormed, r, key), encoded(stormed, owners[0], key))
            << "key " << key << " differs between final owners " << r
            << " and " << owners[0] << " (seed " << seed << ")";
      }
    }

    // And it is a fixed point: nothing ships on one more pass.
    EXPECT_EQ(stormed.anti_entropy_digest().stats.keys_shipped, 0u);
  }
}

}  // namespace
