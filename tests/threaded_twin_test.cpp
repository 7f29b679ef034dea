// Threaded-vs-sim twin equivalence, and real-concurrency convergence.
//
// The shard-per-thread refactor's central claim: moving execution onto
// real threads changes WHERE code runs, never WHAT it computes.  The
// twin here drives one deterministic client trace through two stores —
//
//   * threaded: ThreadedTransport with 4 shards, every operation
//     entering the coordinator's serial domain through run_at
//     (put_direct / get_direct, the dvvd request path), settled to
//     quiescence after each op;
//   * sim twin: SimTransport, fault-free, the same trace pumped to
//     empty after each op —
//
// and requires byte-identical end states: every replica's full codec
// encoding for every key, plus the anti-entropy digest fixed point.
// Per-op settlement makes this exact: each operation puts at most one
// message in flight per destination replica, so no cross-thread
// ordering ambiguity survives to the state.
//
// The hammer test then drops determinism and brings REAL concurrency
// (the part a sim can't exercise and the reason the TSan CI leg runs
// this file): many client threads issuing put_direct against
// overlapping keys through run_at, then quiesce + anti-entropy to a
// fixed point, asserting full pairwise replica agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kv/store.hpp"
#include "net/threaded_transport.hpp"

namespace dvv {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kShards = 4;

kv::StoreConfig threaded_config() {
  kv::StoreConfig config;
  config.servers = kServers;
  config.transport.kind = net::TransportKind::kThreaded;
  config.transport.threaded.shards = kShards;
  return config;
}

kv::StoreConfig sim_config() {
  kv::StoreConfig config;
  config.servers = kServers;
  config.transport.kind = net::TransportKind::kSim;
  config.transport.sim = net::SimTransportConfig{};  // fault-free
  return config;
}

/// The deterministic client trace: token round-trips, deliberate
/// concurrent blind writes (siblings), and enough distinct keys that
/// every shard owns coordinators.  Driven identically through both
/// stores; `settle` drains whichever transport backs the store.
void drive_trace(kv::Store& store) {
  const auto settle = [&store] { (void)store.pump_all(); };
  std::map<std::pair<std::uint64_t, std::string>, kv::CausalToken> tokens;
  const auto read_token = [&](std::uint64_t client, const std::string& key) {
    const kv::StoreGetResult g = store.get_direct(key);
    ASSERT_TRUE(g.ok());
    tokens[{client, key}] = g.token;
  };
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t client = 0; client < 3; ++client) {
      for (int k = 0; k < 5; ++k) {
        const std::string key = "key-" + std::to_string(k);
        const std::string value = "v" + std::to_string(round) + "-" +
                                  std::to_string(client) + "-" +
                                  std::to_string(k);
        // Clients 0 and 1 round-trip tokens (causal chains); client 2
        // writes blind every time (persistent sibling pressure).
        const kv::CausalToken token =
            client == 2 ? kv::CausalToken{} : tokens[{client, key}];
        const kv::StorePutResult p = store.put_direct(
            key, kv::client_actor(client), token, value);
        ASSERT_TRUE(p.ok()) << "put " << key << " round " << round;
        settle();
        if (client != 2) read_token(client, key);
      }
    }
  }
  settle();
}

/// Full-cluster state fingerprint: every replica's encoded state for
/// every key it holds, in deterministic order.
std::map<std::string, std::string> fingerprint(kv::Store& store) {
  std::map<std::string, std::string> out;
  for (kv::ReplicaId r = 0; r < store.servers(); ++r) {
    for (const kv::Key& key : store.keys(r)) {
      const std::optional<std::string> enc = store.encoded_state(r, key);
      if (!enc.has_value()) {
        ADD_FAILURE() << "replica " << r << " lists " << key << " but has no state";
        continue;
      }
      out["r" + std::to_string(r) + "/" + key] = *enc;
    }
  }
  return out;
}

class ThreadedTwinTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadedTwinTest, ByteIdenticalToSimTwin) {
  const std::string mechanism = GetParam();
  const std::unique_ptr<kv::Store> threaded =
      kv::make_store(mechanism, threaded_config());
  ASSERT_NE(threaded, nullptr);
  ASSERT_EQ(threaded->shard_count(), kShards);
  const std::unique_ptr<kv::Store> twin = kv::make_store(mechanism, sim_config());
  ASSERT_NE(twin, nullptr);
  ASSERT_EQ(twin->shard_count(), 1u);

  drive_trace(*threaded);
  drive_trace(*twin);

  const std::map<std::string, std::string> a = fingerprint(*threaded);
  const std::map<std::string, std::string> b = fingerprint(*twin);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [where, bytes] : a) {
    const auto it = b.find(where);
    ASSERT_NE(it, b.end()) << where << " missing from the sim twin";
    EXPECT_EQ(bytes, it->second) << "state diverges at " << where;
  }

  // The anti-entropy digest pass must agree the clusters are at the
  // same fixed point: identical states -> identical digests -> both
  // report nothing to repair.
  const kv::DigestRepairReport ra = threaded->anti_entropy_digest();
  const kv::DigestRepairReport rb = twin->anti_entropy_digest();
  EXPECT_EQ(ra.stats.keys_shipped, rb.stats.keys_shipped);
  EXPECT_EQ(ra.sweeps, rb.sweeps);
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ThreadedTwinTest,
                         ::testing::Values("dvv", "dvvset", "server-vv",
                                           "client-vv", "vve",
                                           "causal-history"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// Real concurrency: client threads hammer overlapping keys through
/// run_at-mediated put_direct from OUTSIDE the shard domains, exactly
/// as a bench driver would.  No byte-level oracle here (interleaving
/// is real); the properties are (a) no data race — the TSan leg runs
/// this — (b) no lost write that anti-entropy cannot reconcile, and
/// (c) full replica agreement at the fixed point.
TEST(ThreadedHammerTest, ConcurrentPutsConvergeAfterAntiEntropy) {
  for (const std::string mechanism : {"dvv", "dvvset"}) {
    const std::unique_ptr<kv::Store> store =
        kv::make_store(mechanism, threaded_config());
    ASSERT_NE(store, nullptr);

    constexpr std::size_t kThreads = 4;
    constexpr int kOpsPerThread = 50;
    // gtest assertions are not thread-safe: worker failures are
    // collected in an atomic and asserted on the main thread.
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&store, &failures, t] {
        kv::CausalToken token;  // per-thread causal chain on its hot key
        const std::string hot = "hot-" + std::to_string(t % 2);
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::string key =
              i % 3 == 0 ? hot : "key-" + std::to_string(i % 7);
          const kv::StorePutResult p = store->put_direct(
              key, kv::client_actor(t),
              i % 3 == 0 ? token : kv::CausalToken{},
              "t" + std::to_string(t) + "-" + std::to_string(i));
          if (!p.ok()) failures.fetch_add(1, std::memory_order_relaxed);
          if (i % 3 == 0) {
            const kv::StoreGetResult g = store->get_direct(hot);
            if (!g.ok()) failures.fetch_add(1, std::memory_order_relaxed);
            token = g.token;
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    ASSERT_EQ(failures.load(), 0) << mechanism << ": worker ops failed";
    (void)store->pump_all();

    // Anti-entropy to a fixed point, then require pairwise agreement of
    // every replica on every key.
    for (int round = 0; round < 8; ++round) {
      const kv::DigestRepairReport report = store->anti_entropy_digest();
      (void)store->pump_all();
      if (report.stats.keys_shipped == 0) break;
    }
    const kv::DigestRepairReport fixed = store->anti_entropy_digest();
    EXPECT_EQ(fixed.stats.keys_shipped, 0u)
        << mechanism << ": not at a fixed point";

    for (kv::ReplicaId r = 0; r < store->servers(); ++r) {
      for (const kv::Key& key : store->keys(r)) {
        const std::optional<std::string> mine = store->encoded_state(r, key);
        for (const kv::ReplicaId peer : store->preference_list(key)) {
          if (peer == r) continue;
          EXPECT_EQ(mine, store->encoded_state(peer, key))
              << mechanism << ": replicas " << r << " and " << peer
              << " disagree on " << key;
        }
      }
    }
  }
}

/// Teardown with replication in flight: put_direct completes on the
/// coordinator's local apply, so its fan-out to the rest of the
/// preference list is still queued when the store is destroyed.  The
/// transport must drain its workers before the replicas they deliver
/// into are freed, and a delivery's onward send during that drain must
/// not restart a worker over a joinable thread.
TEST(ThreadedTeardownTest, DestroyWithReplicationInFlight) {
  for (const std::size_t shards : {1u, 3u}) {
    for (int lifetime = 0; lifetime < 3; ++lifetime) {
      kv::StoreConfig config = threaded_config();
      config.transport.threaded.shards = shards;
      const std::unique_ptr<kv::Store> store = kv::make_store("dvv", config);
      ASSERT_NE(store, nullptr);
      for (int i = 0; i < 5000; ++i) {
        const std::string key = std::to_string(i);
        const kv::StorePutResult p =
            store->put_direct(key, kv::client_actor(0), kv::CausalToken{}, key);
        ASSERT_TRUE(p.ok()) << shards << " shards, put " << i;
      }
      // No pump_all: the store goes out of scope mid-replication.
    }
  }
}

}  // namespace
}  // namespace dvv
