// The observability layer's cardinal property: instrumentation is
// BEHAVIOR-INVARIANT.  A metrics-on run (global registry enabled,
// flight recorder armed) must be byte-identical to a metrics-off twin
// — every replica's every key, replay measurements, receipts, the
// anti-entropy fixed points — for all six mechanisms, over seeded
// chaotic workloads, on whichever transport DVV_TRANSPORT selects
// (the chaos SimTransport leg is where an instrumentation bug that
// perturbed the fault RNG stream would show up instantly).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "kv/store.hpp"
#include "obs/obs.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::kv::Store;
using dvv::kv::StoreConfig;
using dvv::workload::ReplayStats;
using dvv::workload::Trace;
using dvv::workload::WorkloadSpec;

constexpr std::size_t kServers = 5;

StoreConfig store_config() {
  StoreConfig config;
  config.servers = kServers;
  config.replication = 3;
  config.vnodes = 32;
  return config;
}

/// Full byte-level snapshot: every replica's every key, codec-encoded.
std::map<std::pair<ReplicaId, Key>, std::string> full_state(const Store& store) {
  std::map<std::pair<ReplicaId, Key>, std::string> out;
  for (ReplicaId r = 0; r < store.servers(); ++r) {
    for (const Key& key : store.keys(r)) {
      const auto bytes = store.encoded_state(r, key);
      if (!bytes.has_value()) {
        ADD_FAILURE() << "listed key " << key << " has no state at " << r;
        continue;
      }
      out.emplace(std::make_pair(r, key), *bytes);
    }
  }
  return out;
}

void expect_same_stats(const ReplayStats& a, const ReplayStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.gets, b.gets) << label;
  EXPECT_EQ(a.puts, b.puts) << label;
  EXPECT_EQ(a.anti_entropy_rounds, b.anti_entropy_rounds) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
  EXPECT_EQ(a.recoveries, b.recoveries) << label;
  EXPECT_EQ(a.partitions, b.partitions) << label;
  EXPECT_EQ(a.heals, b.heals) << label;
  EXPECT_EQ(a.ticks, b.ticks) << label;
  EXPECT_EQ(a.op_timeouts, b.op_timeouts) << label;
  EXPECT_EQ(a.max_in_flight, b.max_in_flight) << label;
  EXPECT_EQ(a.get_metadata_bytes.count(), b.get_metadata_bytes.count()) << label;
  EXPECT_DOUBLE_EQ(a.get_metadata_bytes.mean(), b.get_metadata_bytes.mean())
      << label;
  EXPECT_DOUBLE_EQ(a.get_total_bytes.mean(), b.get_total_bytes.mean()) << label;
  EXPECT_DOUBLE_EQ(a.get_siblings.mean(), b.get_siblings.mean()) << label;
  EXPECT_EQ(a.put_replication_bytes.count(), b.put_replication_bytes.count())
      << label;
  EXPECT_DOUBLE_EQ(a.put_replication_bytes.mean(), b.put_replication_bytes.mean())
      << label;
  EXPECT_EQ(a.final_keys, b.final_keys) << label;
  EXPECT_EQ(a.final_siblings, b.final_siblings) << label;
  EXPECT_EQ(a.final_clock_entries, b.final_clock_entries) << label;
  EXPECT_EQ(a.final_metadata_bytes, b.final_metadata_bytes) << label;
  EXPECT_EQ(a.final_total_bytes, b.final_total_bytes) << label;
}

/// Chaotic sync-path workload: partial replication, blind writes,
/// fail/recover, hinted handoff, periodic anti-entropy.
WorkloadSpec chaotic_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 24;
  spec.clients = 6;
  spec.operations = 400;
  spec.read_before_write = 0.85;
  spec.replicate_probability = 0.6;
  spec.anti_entropy_every = 60;
  spec.value_bytes = 12;
  spec.servers = kServers;
  spec.fail_probability = 0.02;
  spec.recover_probability = 0.05;
  spec.hinted_handoff = true;
  spec.seed = seed;
  return spec;
}

/// Asynchronous-quorum workload with partitions: in-flight coordinated
/// reads/writes, tick pumps, deadline expiries — the path where the
/// coordinator's span instrumentation is densest.
WorkloadSpec async_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 16;
  spec.clients = 6;
  spec.operations = 300;
  spec.read_before_write = 0.8;
  spec.replicate_probability = 0.8;
  spec.value_bytes = 8;
  spec.servers = kServers;
  spec.partition_probability = 0.02;
  spec.heal_probability = 0.2;
  spec.async_quorum = true;
  spec.read_quorum = 2;
  spec.write_quorum = 2;
  spec.deadline_ticks = 12;
  spec.seed = seed;
  return spec;
}

/// Restores the global metrics/flight state on scope exit so one
/// failing assertion cannot leak an enabled registry into later tests.
struct ObsStateGuard {
  bool was_enabled = dvv::obs::registry().enabled();
  std::size_t flight_capacity = dvv::obs::flight().capacity();
  ~ObsStateGuard() {
    dvv::obs::set_metrics_enabled(was_enabled);
    dvv::obs::flight().configure(flight_capacity);
  }
};

/// Replays `trace` twice through identical facade stores — metrics off,
/// then metrics on with the flight recorder armed — and asserts the
/// runs are byte-identical, including through both anti-entropy fixed
/// points.  Also asserts the ON run actually measured something, so a
/// future regression that silently disconnects the catalogs cannot
/// rot this proof into a no-op-vs-no-op comparison.
void prove_metrics_invariance(const std::string& mechanism, const Trace& trace,
                              std::uint64_t seed) {
  const ObsStateGuard guard;
  const std::string label = mechanism + " seed " + std::to_string(seed);

  dvv::obs::set_metrics_enabled(false);
  dvv::obs::flight().configure(0);
  const auto off = dvv::kv::make_store(mechanism, store_config());
  ASSERT_NE(off, nullptr);
  const ReplayStats off_stats = dvv::workload::replay(*off, trace);

  dvv::obs::set_metrics_enabled(true);
  dvv::obs::flight().configure(4096);
  const auto on = dvv::kv::make_store(mechanism, store_config());
  ASSERT_NE(on, nullptr);
  const ReplayStats on_stats = dvv::workload::replay(*on, trace);

  EXPECT_GT(dvv::obs::registry().counter_value("store.puts"), 0u)
      << label << ": the ON run must actually measure";
  EXPECT_GT(dvv::obs::flight().recorded(), 0u)
      << label << ": the ON run must actually record spans";

  expect_same_stats(off_stats, on_stats, label);
  EXPECT_EQ(full_state(*off), full_state(*on))
      << label << ": metrics-on replay diverged from the metrics-off twin";

  // Fixed points with instrumentation still ON for the on-twin's pass:
  // the aae.* bumps and flight spans must not perturb repair either.
  dvv::obs::set_metrics_enabled(false);
  const auto off_report = off->anti_entropy_digest();
  dvv::obs::set_metrics_enabled(true);
  const auto on_report = on->anti_entropy_digest();
  EXPECT_EQ(off_report.stats.keys_shipped, on_report.stats.keys_shipped) << label;
  EXPECT_EQ(off_report.stats.wire_bytes, on_report.stats.wire_bytes) << label;
  EXPECT_EQ(full_state(*off), full_state(*on))
      << label << ": digest anti-entropy fixed points diverge";
}

class MetricsInvarianceTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllMechanisms, MetricsInvarianceTest,
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

TEST_P(MetricsInvarianceTest, ChaoticWorkloadIsByteIdenticalWithMetricsOn) {
  for (const std::uint64_t seed : {3ULL, 77ULL, 20120716ULL}) {
    const Trace trace = dvv::workload::generate_trace(chaotic_spec(seed), 3);
    prove_metrics_invariance(GetParam(), trace, seed);
  }
}

TEST_P(MetricsInvarianceTest, AsyncQuorumWorkloadIsByteIdenticalWithMetricsOn) {
  for (const std::uint64_t seed : {5ULL, 1234ULL}) {
    const Trace trace = dvv::workload::generate_trace(async_spec(seed), 3);
    prove_metrics_invariance(GetParam(), trace, seed);
  }
}

}  // namespace
