// Tests for the event-driven store simulation (src/sim/sim_store.hpp),
// the E7 substrate: determinism, accounting invariants, metadata ->
// latency coupling, and cross-mechanism sanity.
//
// The simulator drives the type-erased kv::Store facade, so the
// mechanism is a runtime name: tests that do not pin one leave
// config.mechanism empty and run under the process default (env
// DVV_MECHANISM — the CI matrix sweeps the whole suite that way).
#include "sim/sim_store.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/latency.hpp"

namespace {

using dvv::sim::LatencyModel;
using dvv::sim::simulate_store;
using dvv::sim::SimStoreConfig;
using dvv::sim::SimStoreResult;

SimStoreConfig with_mechanism(SimStoreConfig config, std::string name) {
  config.mechanism = std::move(name);
  return config;
}

SimStoreConfig small_config() {
  SimStoreConfig config;
  config.clients = 8;
  config.keys = 8;
  config.ops_per_client = 50;
  config.think_ms = 0.5;
  config.seed = 7;
  return config;
}

TEST(SimStore, CompletesEveryCycle) {
  const auto result = simulate_store(small_config());
  EXPECT_EQ(result.cycles, 8u * 50u);
  EXPECT_EQ(result.get_latency_ms.count(), result.cycles);
  EXPECT_EQ(result.put_latency_ms.count(), result.cycles);
  EXPECT_EQ(result.cycle_latency_ms.count(), result.cycles);
  EXPECT_GT(result.sim_duration_ms, 0.0);
}

TEST(SimStore, DeterministicForSameSeed) {
  const auto a = simulate_store(small_config());
  const auto b = simulate_store(small_config());
  EXPECT_DOUBLE_EQ(a.cycle_latency_ms.mean(), b.cycle_latency_ms.mean());
  EXPECT_DOUBLE_EQ(a.get_reply_bytes.mean(), b.get_reply_bytes.mean());
  EXPECT_DOUBLE_EQ(a.sim_duration_ms, b.sim_duration_ms);
}

TEST(SimStore, DifferentSeedsDiffer) {
  auto config = small_config();
  const auto a = simulate_store(config);
  config.seed = 8;
  const auto b = simulate_store(config);
  EXPECT_NE(a.sim_duration_ms, b.sim_duration_ms);
}

TEST(SimStore, LatencyRespectsPhysicalLowerBound) {
  // A cycle is at least: 4 one-way legs (GET req/reply, PUT req/ack),
  // each >= base_ms of the default LAN model the simulator samples.
  const auto result = simulate_store(small_config());
  EXPECT_GE(result.cycle_latency_ms.min(), 4 * LatencyModel{}.base_ms);
  EXPECT_GE(result.get_latency_ms.min(), 2 * LatencyModel{}.base_ms);
}

TEST(SimStore, CycleAtLeastGetPlusPut) {
  const auto result = simulate_store(small_config());
  EXPECT_GE(result.cycle_latency_ms.mean(),
            result.get_latency_ms.mean() + result.put_latency_ms.mean() - 1e-9);
}

TEST(SimStore, MoreValueBytesMeansSlowerReplies) {
  auto small = small_config();
  auto large = small_config();
  large.value_bytes = 100'000;  // dominate every other term
  const auto fast = simulate_store(small);
  const auto slow = simulate_store(large);
  EXPECT_GT(slow.cycle_latency_ms.mean(), fast.cycle_latency_ms.mean());
  EXPECT_GT(slow.get_reply_bytes.mean(), fast.get_reply_bytes.mean());
}

TEST(SimStore, ClientVvCarriesMoreReplyBytesThanDvvUnderManyClients) {
  SimStoreConfig config;
  config.clients = 64;
  config.keys = 8;  // hot: many writers per key
  config.ops_per_client = 40;
  config.seed = 11;
  const auto cvv = simulate_store(with_mechanism(config, "client-vv"));
  const auto dvv = simulate_store(with_mechanism(config, "dvv"));
  EXPECT_GT(cvv.get_reply_bytes.mean(), dvv.get_reply_bytes.mean() * 1.5)
      << "the E7 mechanism gap must be visible in reply sizes";
}

TEST(SimStore, AllMechanismsCompleteTheWorkload) {
  const auto config = small_config();
  for (const char* mechanism : {"dvv", "dvvset", "server-vv", "client-vv",
                                "vve", "causal-history"}) {
    EXPECT_EQ(simulate_store(with_mechanism(config, mechanism)).cycles, 400u)
        << mechanism;
  }
}

// ---- crash injection (src/store) -------------------------------------------

SimStoreConfig crashy_config() {
  SimStoreConfig config = small_config();
  config.clients = 12;
  config.ops_per_client = 80;
  config.crash_interval_ms = 6.0;
  config.crash_downtime_ms = 10.0;
  config.aae_interval_ms = 4.0;  // repair races the crashes
  return config;
}

TEST(SimStoreCrash, WalClusterSurvivesCrashStorm) {
  auto config = crashy_config();
  config.storage.kind = dvv::store::BackendKind::kWal;
  // Group commit leaves an un-flushed tail for a crash to tear; with a
  // flush per append there is nothing to tear.
  config.storage.wal.flush_every = 4;
  config.torn_write_probability = 0.5;
  const auto result = simulate_store(config);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_EQ(result.recoveries, result.crashes) << "every crash recovers";
  EXPECT_GT(result.wal_records_replayed, 0u) << "recovery replays the log";
  EXPECT_GT(result.wal_torn_records, 0u) << "some crash tore a write";
  EXPECT_GT(result.cycles, 0u);
  // Every issued request either completed a cycle or hit an outage.
  EXPECT_EQ(result.cycles + result.unavailable_requests,
            static_cast<std::uint64_t>(config.clients) * config.ops_per_client);
}

TEST(SimStoreCrash, MemClusterReplaysNothingOnRecovery) {
  auto config = crashy_config();
  config.storage.kind = dvv::store::BackendKind::kMem;
  const auto result = simulate_store(config);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_EQ(result.wal_records_replayed, 0u) << "no log, nothing to replay";
}

TEST(SimStoreCrash, DeterministicForSameSeed) {
  auto config = crashy_config();
  config.storage.kind = dvv::store::BackendKind::kWal;
  const auto a = simulate_store(config);
  const auto b = simulate_store(config);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.wal_records_replayed, b.wal_records_replayed);
  EXPECT_DOUBLE_EQ(a.sim_duration_ms, b.sim_duration_ms);
}

TEST(SimStoreCrash, DisabledByDefault) {
  const auto result = simulate_store(small_config());
  EXPECT_EQ(result.crashes, 0u);
  EXPECT_EQ(result.unavailable_requests, 0u);
  EXPECT_EQ(result.replication_drops, 0u);
}

// ---- message-layer faults (src/net) ----------------------------------------

TEST(SimStoreNet, TopologyIsConfigurable) {
  // Satellite regression: servers/replication were hardcoded 5/3.
  auto config = small_config();
  config.servers = 9;
  config.replication = 5;
  const auto result = simulate_store(config);
  EXPECT_EQ(result.cycles, 8u * 50u);
  // A 5-way fan-out sends 4 copies per put: more messages than the
  // 3-way default ships in the same workload.
  auto narrow = small_config();
  const auto three = simulate_store(narrow);
  EXPECT_GT(result.messages_sent, three.messages_sent);
}

TEST(SimStoreNet, ReplicationRidesRealMessages) {
  const auto result = simulate_store(small_config());
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_EQ(result.messages_dropped, 0u);
  EXPECT_EQ(result.messages_delivered, result.messages_sent)
      << "no faults: every queued message eventually lands";
}

TEST(SimStoreNet, PartitionStormsLoseMessagesAndAaeRepairs) {
  auto config = small_config();
  config.clients = 12;
  config.ops_per_client = 80;
  config.aae_interval_ms = 4.0;
  config.partition_interval_ms = 8.0;
  config.partition_duration_ms = 6.0;
  config.msg_duplicate_probability = 0.05;
  config.msg_reorder_window = 2;
  const auto result = simulate_store(config);
  EXPECT_GT(result.partitions, 0u);
  EXPECT_EQ(result.partitions, result.heals) << "every storm passes";
  EXPECT_GT(result.partition_drops, 0u) << "some fan-out died on the cut";
  EXPECT_EQ(result.replication_drops, 0u)
      << "no replica died: a cut link is a partition drop, not a dead target";
  EXPECT_GT(result.messages_duplicated, 0u);
  EXPECT_EQ(result.cycles,
            static_cast<std::uint64_t>(config.clients) * config.ops_per_client)
      << "partitions break links, not clients";
}

// ---- quorum coordination (src/kv/coordinator.hpp) ---------------------------

TEST(SimStoreQuorum, CoordinatorLocalDefaultsKeepHistoricalShape) {
  // R = W = 1 completes at the coordinator: no op ever waits on the
  // queues, so there are no timeouts and no degraded completions.
  const auto result = simulate_store(small_config());
  EXPECT_EQ(result.op_timeouts, 0u);
  EXPECT_EQ(result.reads_degraded, 0u);
  EXPECT_EQ(result.writes_degraded, 0u);
}

TEST(SimStoreQuorum, QuorumWritesWaitForRealAcks) {
  auto one = small_config();
  auto two = small_config();
  two.write_quorum = 2;
  two.read_quorum = 2;
  const auto w1 = simulate_store(one);
  const auto w2 = simulate_store(two);
  EXPECT_EQ(w2.cycles, w1.cycles) << "every cycle still completes";
  EXPECT_GT(w2.put_latency_ms.mean(), w1.put_latency_ms.mean())
      << "W=2 acks ride the queues: the client pays a real round trip";
  EXPECT_GT(w2.max_requests_in_flight, 1u)
      << "quorum ops from different clients must genuinely overlap";
}

TEST(SimStoreQuorum, ConcurrentQuorumOpsSurvivePartitionAndCrashStorms) {
  // The tentpole workload: R=W=2 client operations in flight across
  // partition storms, message faults AND crash storms at once — ops
  // time out at their deadline, late acks hit retired request slots,
  // and every issued request still resolves exactly once.
  auto config = small_config();
  config.clients = 12;
  config.ops_per_client = 60;
  config.read_quorum = 2;
  config.write_quorum = 2;
  config.op_deadline_ms = 25.0;
  config.partition_interval_ms = 8.0;
  config.partition_duration_ms = 6.0;
  config.msg_drop_probability = 0.05;
  config.msg_duplicate_probability = 0.05;
  config.msg_reorder_window = 2;
  config.crash_interval_ms = 10.0;
  config.crash_downtime_ms = 8.0;
  config.storage.kind = dvv::store::BackendKind::kWal;
  const auto result = simulate_store(config);

  EXPECT_EQ(result.cycles + result.unavailable_requests,
            static_cast<std::uint64_t>(config.clients) * config.ops_per_client)
      << "every issued request either completed a cycle or hit an outage";
  EXPECT_GT(result.partitions, 0u);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_GT(result.max_requests_in_flight, 1u);
  EXPECT_GT(result.op_timeouts, 0u)
      << "storms must push some quorum ops into their deadline";
  EXPECT_GT(result.late_replies_dropped + result.stale_replies_dropped, 0u)
      << "replies outliving their requests must hit the hygiene path";

  // And the whole storm is reproducible.
  const auto rerun = simulate_store(config);
  EXPECT_EQ(result.cycles, rerun.cycles);
  EXPECT_EQ(result.op_timeouts, rerun.op_timeouts);
  EXPECT_EQ(result.stale_replies_dropped, rerun.stale_replies_dropped);
  EXPECT_DOUBLE_EQ(result.sim_duration_ms, rerun.sim_duration_ms);
}

TEST(SimStoreNet, FaultyTransportIsDeterministic) {
  auto config = small_config();
  config.partition_interval_ms = 10.0;
  config.msg_drop_probability = 0.05;
  config.msg_duplicate_probability = 0.05;
  config.msg_reorder_window = 3;
  config.aae_interval_ms = 5.0;
  const auto a = simulate_store(config);
  const auto b = simulate_store(config);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.partition_drops, b.partition_drops);
  EXPECT_DOUBLE_EQ(a.sim_duration_ms, b.sim_duration_ms);
}

}  // namespace
