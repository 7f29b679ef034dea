// Tests for trace generation and replay: determinism, spec knobs, and
// the measurement plumbing the benches consume.
#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kv/store.hpp"
#include "workload/replay.hpp"

namespace {

using dvv::kv::ReplicaId;
using dvv::kv::StoreConfig;
using dvv::workload::generate_trace;
using dvv::workload::Trace;
using dvv::workload::TraceOp;
using dvv::workload::WorkloadSpec;

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.keys = 10;
  spec.clients = 4;
  spec.operations = 200;
  spec.seed = 42;
  return spec;
}

StoreConfig config() {
  StoreConfig cfg;
  cfg.mechanism = "dvv";
  cfg.servers = 5;
  cfg.replication = 3;
  cfg.vnodes = 16;
  return cfg;
}

TEST(Trace, DeterministicForSameSpec) {
  const Trace a = generate_trace(small_spec(), 3);
  const Trace b = generate_trace(small_spec(), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].key, b.ops[i].key);
    EXPECT_EQ(a.ops[i].client, b.ops[i].client);
    EXPECT_EQ(a.ops[i].rank, b.ops[i].rank);
    EXPECT_EQ(a.ops[i].value, b.ops[i].value);
  }
}

TEST(Trace, DifferentSeedsDiffer) {
  auto spec = small_spec();
  const Trace a = generate_trace(spec, 3);
  spec.seed = 43;
  const Trace b = generate_trace(spec, 3);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.ops[i].key != b.ops[i].key || a.ops[i].client != b.ops[i].client;
  }
  EXPECT_TRUE(differs);
}

TEST(Trace, ContainsOnePutPerOperation) {
  const Trace t = generate_trace(small_spec(), 3);
  std::size_t puts = 0;
  for (const auto& op : t.ops) {
    if (op.kind == TraceOp::Kind::kPut) ++puts;
  }
  EXPECT_EQ(puts, small_spec().operations);
}

TEST(Trace, RmwFractionControlsGets) {
  auto spec = small_spec();
  spec.operations = 2000;

  spec.read_before_write = 1.0;
  const Trace all_rmw = generate_trace(spec, 3);
  std::size_t gets = 0, blind = 0;
  for (const auto& op : all_rmw.ops) {
    if (op.kind == TraceOp::Kind::kGet) ++gets;
    if (op.kind == TraceOp::Kind::kPut && op.blind) ++blind;
  }
  EXPECT_EQ(gets, spec.operations);
  EXPECT_EQ(blind, 0u);

  spec.read_before_write = 0.0;
  const Trace all_blind = generate_trace(spec, 3);
  gets = 0;
  blind = 0;
  for (const auto& op : all_blind.ops) {
    if (op.kind == TraceOp::Kind::kGet) ++gets;
    if (op.kind == TraceOp::Kind::kPut && op.blind) ++blind;
  }
  EXPECT_EQ(gets, 0u);
  EXPECT_EQ(blind, spec.operations);
}

TEST(Trace, ValuesAreGloballyUnique) {
  const Trace t = generate_trace(small_spec(), 3);
  std::set<std::string> values;
  for (const auto& op : t.ops) {
    if (op.kind == TraceOp::Kind::kPut) {
      EXPECT_TRUE(values.insert(op.value).second) << op.value;
    }
  }
}

TEST(Trace, ValueBytesPadsPayloads) {
  auto spec = small_spec();
  spec.value_bytes = 64;
  const Trace t = generate_trace(spec, 3);
  for (const auto& op : t.ops) {
    if (op.kind == TraceOp::Kind::kPut) {
      EXPECT_GE(op.value.size(), 64u);
    }
  }
}

TEST(Trace, AntiEntropyCadence) {
  auto spec = small_spec();
  spec.operations = 100;
  spec.anti_entropy_every = 10;
  const Trace t = generate_trace(spec, 3);
  std::size_t ae = 0;
  for (const auto& op : t.ops) {
    if (op.kind == TraceOp::Kind::kAntiEntropy) ++ae;
  }
  EXPECT_EQ(ae, 9u);  // after ops 10,20,...,90
}

TEST(Trace, ReplicationProbabilityZeroMeansCoordinatorOnly) {
  auto spec = small_spec();
  spec.replicate_probability = 0.0;
  const Trace t = generate_trace(spec, 3);
  for (const auto& op : t.ops) {
    if (op.kind == TraceOp::Kind::kPut) {
      EXPECT_TRUE(op.replicate_ranks.empty());
    }
  }
}

TEST(Trace, RanksStayWithinReplication) {
  const Trace t = generate_trace(small_spec(), 3);
  for (const auto& op : t.ops) {
    EXPECT_LT(op.rank, 3u);
    for (const auto r : op.replicate_ranks) {
      EXPECT_LT(r, 3u);
      EXPECT_NE(r, op.rank);
    }
  }
}

TEST(Replay, CountsMatchTrace) {
  const Trace t = generate_trace(small_spec(), config().replication);
  const auto store = dvv::kv::make_store(config());
  const auto stats = dvv::workload::replay(*store, t);
  std::size_t gets = 0, puts = 0;
  for (const auto& op : t.ops) {
    gets += op.kind == TraceOp::Kind::kGet;
    puts += op.kind == TraceOp::Kind::kPut;
  }
  EXPECT_EQ(stats.gets, gets);
  EXPECT_EQ(stats.puts, puts);
  EXPECT_EQ(stats.get_metadata_bytes.count(), gets);
  EXPECT_GT(stats.final_keys, 0u);
  EXPECT_GT(stats.final_metadata_bytes, 0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const Trace t = generate_trace(small_spec(), config().replication);
  const auto c1 = dvv::kv::make_store(config());
  const auto c2 = dvv::kv::make_store(config());
  const auto s1 = dvv::workload::replay(*c1, t);
  const auto s2 = dvv::workload::replay(*c2, t);
  EXPECT_EQ(s1.final_metadata_bytes, s2.final_metadata_bytes);
  EXPECT_EQ(s1.final_siblings, s2.final_siblings);
  EXPECT_EQ(s1.get_metadata_bytes.mean(), s2.get_metadata_bytes.mean());
}

TEST(Replay, FullReplicationNoAntiEntropyNeededForConvergence) {
  auto spec = small_spec();
  spec.replicate_probability = 1.0;
  const Trace t = generate_trace(spec, config().replication);
  const auto store = dvv::kv::make_store(config());
  dvv::workload::replay(*store, t);

  // Every key's preference-list replicas hold identical value sets.
  for (ReplicaId s = 0; s < config().servers; ++s) {
    for (const auto& key : store->keys(s)) {
      const auto pref = store->preference_list(key);
      std::multiset<std::string> reference;
      bool first = true;
      for (const auto r : pref) {
        ASSERT_TRUE(store->key_stats(r, key).found)
            << "key " << key << " missing on " << r;
        const auto held = store->values_at(r, key);
        const std::multiset<std::string> values(held.begin(), held.end());
        if (first) {
          reference = values;
          first = false;
        } else {
          EXPECT_EQ(values, reference) << "key " << key;
        }
      }
    }
  }
}

}  // namespace
