// Tests for trace generation and replay: determinism, spec knobs, and
// the measurement plumbing the benches consume.
#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "kv/ring.hpp"
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

// Pins the generator's draw sequence.  The oracle, pruning and metadata
// benches replay traces from this generator, so any change to what it
// draws, or in which order, moves their output; this fingerprint of
// every field of every op catches that in the test suite.  The spec
// turns on every branch that draws: failures, partitions, async ticks,
// blind writes and partial replication.
TEST(Trace, GoldenDigest) {
  WorkloadSpec spec;
  spec.keys = 40;
  spec.clients = 6;
  spec.operations = 1500;
  spec.read_before_write = 0.7;
  spec.replicate_probability = 0.5;
  spec.anti_entropy_every = 200;
  spec.value_bytes = 12;
  spec.servers = 5;
  spec.fail_probability = 0.03;
  spec.recover_probability = 0.2;
  spec.partition_probability = 0.02;
  spec.heal_probability = 0.2;
  spec.async_quorum = true;
  spec.read_quorum = 2;
  spec.write_quorum = 2;
  spec.seed = 2012;
  const Trace t = generate_trace(spec, 3);

  std::set<TraceOp::Kind> kinds;
  std::size_t blind = 0, partial = 0;
  std::ostringstream text;
  text << t.clients;
  for (const TraceOp& op : t.ops) {
    kinds.insert(op.kind);
    blind += op.blind;
    partial += op.kind == TraceOp::Kind::kPut && op.replicate_ranks.size() < 2;
    text << '\n' << static_cast<int>(op.kind) << '|' << op.client << '|'
         << op.key << '|' << op.rank << '|' << op.blind << '|' << op.value
         << '|' << op.server << '|';
    for (const std::size_t r : op.replicate_ranks) text << r << ',';
    text << '|';
    for (const auto& group : op.groups) {
      for (const std::size_t s : group) text << s << ',';
      text << ';';
    }
  }
  for (const TraceOp::Kind k :
       {TraceOp::Kind::kGet, TraceOp::Kind::kPut, TraceOp::Kind::kAntiEntropy,
        TraceOp::Kind::kFail, TraceOp::Kind::kRecover, TraceOp::Kind::kPartition,
        TraceOp::Kind::kHeal, TraceOp::Kind::kTick}) {
    EXPECT_TRUE(kinds.contains(k)) << static_cast<int>(k);
  }
  EXPECT_GT(blind, 0u);
  EXPECT_GT(partial, 0u);
  EXPECT_EQ(t.size(), 3539u);
  EXPECT_EQ(dvv::kv::Ring::hash(text.str()), 4781551697359237903ULL);
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
