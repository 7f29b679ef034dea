// The oracle audits (experiments E2/E8/E9 in test form): every mechanism
// replays identical traces against the causal-history ground truth.
// Parameterized sweeps over seeds and workload shapes assert:
//   * DVV, DVVSet and client-VV are EXACT (zero lost updates, zero false
//     siblings) on every trace;
//   * server-VV is NOT exact once clients race (Fig. 1b at scale);
//   * pruned client-VV loses updates and/or fabricates siblings;
//   * DVV metadata stays bounded by the replication degree while
//     client-VV metadata grows with the number of clients.
#include "oracle/audit.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>

#include "codec/clock_codec.hpp"
#include "kv/store.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::ReplicaId;
using dvv::kv::Store;
using dvv::kv::StoreConfig;
using dvv::oracle::mirrored_run;
using dvv::workload::WorkloadSpec;

/// The subject store: `mechanism` by name; `prune_cap` > 0 selects the
/// pruned client-vv variant.
StoreConfig config(std::string mechanism, std::size_t prune_cap = 0) {
  StoreConfig cfg;
  cfg.mechanism = std::move(mechanism);
  cfg.prune_cap = prune_cap;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 16;
  return cfg;
}

/// A contentious workload: few hot keys, many clients, PARTIAL
/// replication and periodic anti-entropy — the regime where causality
/// mistakes surface.  Reads can miss writes (even the reader's own),
/// exactly like a Dynamo-style store between repair rounds.
WorkloadSpec contentious(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 8;
  spec.zipf_skew = 0.99;
  spec.clients = 16;
  spec.operations = 600;
  spec.read_before_write = 0.7;
  spec.replicate_probability = 0.6;
  spec.anti_entropy_every = 50;
  spec.seed = seed;
  return spec;
}

/// Same contention but with synchronous full replication: every write
/// reaches all R replicas before the next operation, so every read
/// includes the reader's own previous writes (read-your-writes holds).
WorkloadSpec full_replication(std::uint64_t seed) {
  WorkloadSpec spec = contentious(seed);
  spec.replicate_probability = 1.0;
  return spec;
}

/// Anomaly-surfacing variant for the negative tests: more blind writes
/// and frequent anti-entropy so false dominance is observed (the value
/// loss happens at sync; without syncs between overwrites the evidence
/// can be paved over before anyone looks).
WorkloadSpec racy(std::uint64_t seed) {
  WorkloadSpec spec = full_replication(seed);
  spec.read_before_write = 0.5;
  spec.anti_entropy_every = 10;
  return spec;
}

class OracleSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSeedSweep, DvvIsExactEvenUnderPartialReplication) {
  const auto run = mirrored_run(contentious(GetParam()), config("dvv"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
  EXPECT_GT(run.report.values_checked, 0u);
}

TEST_P(OracleSeedSweep, DvvSetIsExactEvenUnderPartialReplication) {
  const auto run = mirrored_run(contentious(GetParam()), config("dvvset"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

TEST_P(OracleSeedSweep, VveIsExactEvenUnderPartialReplication) {
  const auto run = mirrored_run(contentious(GetParam()), config("vve"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

TEST_P(OracleSeedSweep, ClientVvIsExactUnderFullReplication) {
  const auto run =
      mirrored_run(full_replication(GetParam()), config("client-vv"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

TEST_P(OracleSeedSweep, ServerVvIsNotExactUnderRacingClients) {
  const auto run = mirrored_run(racy(GetParam()), config("server-vv"));
  EXPECT_FALSE(run.report.exact())
      << "per-server VVs should mis-track racing client writes";
  EXPECT_GT(run.report.lost_updates(), 0u) << "Fig. 1b data loss at scale";
}

TEST_P(OracleSeedSweep, AggressivelyPrunedClientVvIsNotExact) {
  const auto run = mirrored_run(racy(GetParam()), config("client-vv", 2));
  EXPECT_FALSE(run.report.exact())
      << "pruning to 2 entries under anonymous writers must break causality";
  EXPECT_GT(run.report.lost_updates() + run.report.false_siblings(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The historical Riak-classic data-loss bug, reproduced: with per-client
// vectors the client's counter is derived from the context it read plus
// whatever the coordinator stores.  Under partial replication a client
// can read a replica that missed its own previous write; its next write
// then REUSES a (client, counter) pair for a different value, and the
// first sync deduplicates the two — silently destroying one of them.
// DVV fixes this structurally: dots are minted by the servers that
// store the data, so a counter can never be minted twice.
TEST(OracleNegative, ClientVvReusesCountersUnderPartialReplication) {
  std::uint64_t inexact_seeds = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u}) {
    const auto run = mirrored_run(contentious(seed), config("client-vv"));
    if (!run.report.exact()) ++inexact_seeds;
  }
  EXPECT_GT(inexact_seeds, 0u)
      << "counter reuse should surface on at least one contentious trace";
}

// ---- metadata bounds (the paper's size claim, asserted over real runs)

TEST(OracleBounds, DvvClockEntriesBoundedByReplication) {
  const auto cfg = config("dvv");
  for (const std::uint64_t seed : {7u, 77u, 777u}) {
    const auto run = mirrored_run(contentious(seed), cfg);
    const Store& store = *run.subject;
    for (ReplicaId s = 0; s < cfg.servers; ++s) {
      for (const auto& key : store.keys(s)) {
        const auto bytes = store.encoded_state(s, key);
        ASSERT_TRUE(bytes.has_value());
        dvv::codec::Reader reader(std::as_bytes(std::span(*bytes)));
        const auto stored = dvv::codec::decode_dvv_siblings(reader);
        for (const auto& v : stored.versions()) {
          EXPECT_LE(v.clock.past().size(), cfg.replication)
              << "a DVV past wider than the preference list";
        }
        // Per-sibling cost: vector (<= R entries) + one dot.
        const auto measured = store.key_stats(s, key);
        EXPECT_LE(measured.clock_entries,
                  measured.siblings * (cfg.replication + 1));
      }
    }
  }
}

TEST(OracleBounds, DvvSetEntriesBoundedByReplication) {
  const auto cfg = config("dvvset");
  const auto run = mirrored_run(contentious(7), cfg);
  for (ReplicaId s = 0; s < cfg.servers; ++s) {
    for (const auto& key : run.subject->keys(s)) {
      const auto measured = run.subject->key_stats(s, key);
      ASSERT_TRUE(measured.found);
      EXPECT_LE(measured.clock_entries, cfg.replication)
          << "one entry per coordinating server, at most R of them";
    }
  }
}

TEST(OracleBounds, ClientVvGrowsWithClientsDvvDoesNot) {
  auto few_spec = contentious(7);
  few_spec.clients = 4;
  auto many_spec = contentious(7);
  many_spec.clients = 64;

  const auto dvv_few = mirrored_run(few_spec, config("dvv"));
  const auto dvv_many = mirrored_run(many_spec, config("dvv"));
  const auto cvv_few = mirrored_run(few_spec, config("client-vv"));
  const auto cvv_many = mirrored_run(many_spec, config("client-vv"));

  const double dvv_growth =
      static_cast<double>(dvv_many.subject_stats.final_clock_entries) /
      static_cast<double>(dvv_few.subject_stats.final_clock_entries);
  const double cvv_growth =
      static_cast<double>(cvv_many.subject_stats.final_clock_entries) /
      static_cast<double>(cvv_few.subject_stats.final_clock_entries);
  EXPECT_GT(cvv_growth, dvv_growth * 2)
      << "client-VV metadata must grow much faster with client count "
      << "(dvv x" << dvv_growth << ", client-vv x" << cvv_growth << ")";
}

// Gentle pruning that never actually fires is harmless — the cap itself
// is not the bug, exceeding it is.
TEST(OracleBounds, UnfiredPruningIsExact) {
  auto spec = full_replication(7);
  spec.clients = 3;
  spec.read_before_write = 1.0;  // no anonymous writers: at most 3
                                 // entries ever, cap 64 never triggers
  const auto run = mirrored_run(spec, config("client-vv", 64));
  EXPECT_TRUE(run.report.exact());
}

// The truth store audited against itself is trivially exact — guards
// the audit plumbing against false positives.
TEST(OracleBounds, OracleSelfAuditIsClean) {
  const auto run = mirrored_run(contentious(3), config("causal-history"));
  EXPECT_TRUE(run.report.exact());
  EXPECT_GT(run.report.audits, 0u);
}

}  // namespace
