// bench_rebalance — wire cost of a membership rebalance as a function
// of how much the new owner's state actually DIVERGES from the data it
// claims: the elastic-ring subsystem's headline number.
//
// Setup: a 6-server R=3 ring fully converged on K keys.  Server 5
// gracefully LEAVES (its claimed ranges transfer to the survivors —
// real movement, the constant cost of shrinking), the survivors then
// overwrite a fraction d of the keys while 5 is away, and 5 REJOINS.
// The member-list partitioner puts the rejoiner back on its old vnode
// tokens, so it re-claims exactly the ranges it still holds — and the
// Merkle transfer walks ship ONLY the keys that changed in its
// absence.  Expected shape: rejoin wire bytes scale with d; at d = 0
// the walks are DIGEST-ONLY — tree-node comparisons, ZERO states
// shipped.  The floor costs a few dozen bytes per (partition, owner,
// source) walk, so it grows with the number of OCCUPIED PARTITIONS —
// bounded by ring geometry (members x vnodes arcs), not by the
// keyspace — and shrinks as a fraction of the data as K grows.
// Bytes follow keys moved times divergence, never the keyspace.
//
// Output: one table + BENCH_rebalance.json (schema: {bench, seed,
// config, rows[]}) for downstream tooling, per mechanism, plus a
// keyspace sweep at fixed divergence showing the digest-only floor's
// share of the full-keyspace cost FALLING as the keyspace grows 16x
// (the ratio column), while a naive ship-everything rebalance stays
// at ratio 1 by construction.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "kv/client.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "membership/membership.hpp"
#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::ClientSession;
using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;

constexpr std::size_t kServers = 6;
constexpr std::size_t kValueBytes = 32;
constexpr std::uint64_t kSeed = 0x4EBA1;
constexpr ReplicaId kChurner = 5;  ///< the slot that leaves and rejoins

ClusterConfig bench_config() {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

std::string key_name(std::size_t i) { return "key-" + std::to_string(i); }

struct Row {
  std::string mechanism;
  std::string transition;  ///< "leave" or "rejoin"
  std::size_t keys = 0;    ///< keyspace size K
  std::size_t divergence_pct = 0;
  std::size_t diverged_keys = 0;
  std::size_t keys_shipped = 0;
  std::size_t wire_bytes = 0;
  std::size_t rounds = 0;
  std::size_t nodes_exchanged = 0;
  std::size_t transfers = 0;
  std::size_t full_state_bytes = 0;  ///< shipping the whole keyspace once
};

/// Wire bytes a naive "ship everything to the new owner" rebalance
/// would move: every key's coordinator state once.  Pure accounting.
template <typename M>
std::size_t full_keyspace_bytes(Cluster<M>& cluster, std::size_t keys) {
  const M& mech = cluster.mechanism();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < keys; ++i) {
    const Key key = key_name(i);
    if (const auto* s =
            cluster.replica(cluster.preference_list(key)[0]).find(key)) {
      bytes += 1 + key.size() + mech.total_bytes(*s);
    }
  }
  return bytes;
}

template <typename M>
void run_one(const char* name, std::size_t keys, std::size_t divergence_pct,
             std::vector<Row>& rows) {
  Cluster<M> cluster(bench_config(), {});
  ClientSession<M> writer(dvv::kv::client_actor(0), cluster);

  // Converged base state: every key written with full replication.
  for (std::size_t i = 0; i < keys; ++i) {
    writer.get(key_name(i));
    writer.put(key_name(i), "base" + std::string(kValueBytes, 'x'));
  }

  // Shrink: 5 leaves gracefully; its claimed ranges move to survivors.
  cluster.leave_node(kChurner);
  const dvv::membership::RebalanceStats leave = cluster.complete_rebalance();

  // Divergence while away: d% of the keys get a fully-replicated
  // update among the SURVIVORS (5 keeps only its stale copies).
  dvv::util::Rng rng(kSeed);
  std::vector<std::size_t> order(keys);
  for (std::size_t i = 0; i < keys; ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t diverged = keys * divergence_pct / 100;
  for (std::size_t i = 0; i < diverged; ++i) {
    const Key key = key_name(order[i]);
    writer.get(key);
    writer.put(key, "new" + std::string(kValueBytes, 'y'));
  }

  // Rejoin: 5 re-claims its old ranges; the walks ship only what
  // changed in its absence.
  cluster.join_node(kChurner);
  const dvv::membership::RebalanceStats rejoin = cluster.complete_rebalance();

  const std::size_t full = full_keyspace_bytes(cluster, keys);
  const auto emit = [&](const char* transition,
                        const dvv::membership::RebalanceStats& s) {
    Row row;
    row.mechanism = name;
    row.transition = transition;
    row.keys = keys;
    row.divergence_pct = divergence_pct;
    row.diverged_keys = diverged;
    row.keys_shipped = s.totals.keys_shipped;
    row.wire_bytes = s.totals.wire_bytes;
    row.rounds = s.totals.rounds;
    row.nodes_exchanged = s.totals.nodes_exchanged;
    row.transfers = s.transfers_completed;
    row.full_state_bytes = full;
    rows.push_back(row);
  };
  emit("leave", leave);
  emit("rejoin", rejoin);

  DVV_ASSERT_MSG(divergence_pct > 0 || rejoin.totals.keys_shipped == 0,
                 "a zero-divergence rejoin must be digest-only");
  DVV_ASSERT_MSG(cluster.anti_entropy_digest().stats.keys_shipped == 0,
                 "a completed rebalance must leave nothing to repair");
}

void write_json(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_rebalance.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_rebalance.json\n");
    return;
  }
  const ClusterConfig cfg = bench_config();
  std::fprintf(f, "{\n  \"bench\": \"rebalance\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"obs\": %s,\n",
               dvv::obs::registry().json_snapshot().c_str());
  std::fprintf(f,
               "  \"config\": {\"servers\": %zu, \"replication\": %zu, "
               "\"vnodes\": %zu, \"value_bytes\": %zu, \"churner\": %u},\n",
               cfg.servers, cfg.replication, cfg.vnodes, kValueBytes,
               static_cast<unsigned>(kChurner));
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"mechanism\": \"%s\", \"transition\": \"%s\", \"keys\": %zu, "
        "\"divergence_pct\": %zu, \"diverged_keys\": %zu, "
        "\"keys_shipped\": %zu, \"wire_bytes\": %zu, \"rounds\": %zu, "
        "\"nodes_exchanged\": %zu, \"transfers_completed\": %zu, "
        "\"full_state_bytes\": %zu, \"bytes_ratio\": %.4f}%s\n",
        r.mechanism.c_str(), r.transition.c_str(), r.keys, r.divergence_pct,
        r.diverged_keys, r.keys_shipped, r.wire_bytes, r.rounds,
        r.nodes_exchanged, r.transfers,
        r.full_state_bytes,
        r.full_state_bytes == 0
            ? 0.0
            : static_cast<double>(r.wire_bytes) /
                  static_cast<double>(r.full_state_bytes),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  // Metrics on for the whole run (behavior-invariant by the obs twin
  // property) so the embedded registry snapshot holds real numbers.
  dvv::obs::set_metrics_enabled(true);
  std::printf("==== rebalance: transfer wire cost vs divergence ====\n");
  std::printf("%zu servers, R=3, server %u leaves -> d%% of keys updated -> "
              "rejoins; seed=0x%llX\n\n",
              kServers, static_cast<unsigned>(kChurner),
              static_cast<unsigned long long>(kSeed));

  std::vector<Row> rows;
  // Divergence sweep at a fixed keyspace, every mechanism.  Divergence
  // inner so the per-mechanism rejoin rows sit adjacent for the
  // monotonicity shape check below.
  constexpr std::size_t kSweepKeys = 512;
  const auto sweep = [&rows](auto mech_tag, const char* name) {
    using M = decltype(mech_tag);
    for (const std::size_t pct : {0u, 5u, 25u, 100u}) {
      run_one<M>(name, kSweepKeys, pct, rows);
    }
  };
  sweep(dvv::kv::DvvMechanism{}, "dvv");
  sweep(dvv::kv::DvvSetMechanism{}, "dvvset");
  sweep(dvv::kv::ServerVvMechanism{}, "server-vv");
  sweep(dvv::kv::ClientVvMechanism{}, "client-vv");
  sweep(dvv::kv::VveMechanism{}, "vve");
  sweep(dvv::kv::HistoryMechanism{}, "causal-history");
  // Keyspace sweep at zero divergence: the digest-only floor must not
  // grow with K the way shipping the keyspace would.
  for (const std::size_t keys : {128u, 512u, 2048u}) {
    run_one<dvv::kv::DvvMechanism>("dvv", keys, 0, rows);
  }

  dvv::util::TextTable table;
  table.header({"mechanism", "transition", "keys", "diverg %", "shipped",
                "wire bytes", "full bytes", "ratio"});
  bool shape_ok = true;
  std::size_t prior_rejoin_bytes = 0;
  std::string prior_key;
  for (const Row& r : rows) {
    const double ratio =
        r.full_state_bytes == 0
            ? 0.0
            : static_cast<double>(r.wire_bytes) /
                  static_cast<double>(r.full_state_bytes);
    if (r.transition == "rejoin") {
      // Monotone in divergence per (mechanism, keyspace), and the
      // zero-divergence floor ships no states at all.
      const std::string k = r.mechanism + "/" + std::to_string(r.keys);
      if (k == prior_key && r.wire_bytes < prior_rejoin_bytes) shape_ok = false;
      prior_key = k;
      prior_rejoin_bytes = r.wire_bytes;
      if (r.divergence_pct == 0 && r.keys_shipped != 0) shape_ok = false;
    }
    table.row({r.mechanism, r.transition, std::to_string(r.keys),
               std::to_string(r.divergence_pct), std::to_string(r.keys_shipped),
               std::to_string(r.wire_bytes), std::to_string(r.full_state_bytes),
               dvv::util::fixed(ratio, 3)});
  }
  // Shipping must dominate walking: full divergence costs at least
  // twice the digest-only floor for every (mechanism, keyspace) pair
  // that ran both ends of the sweep.
  for (const Row& lo : rows) {
    if (lo.transition != "rejoin" || lo.divergence_pct != 0) continue;
    for (const Row& hi : rows) {
      if (hi.transition == "rejoin" && hi.divergence_pct == 100 &&
          hi.mechanism == lo.mechanism && hi.keys == lo.keys &&
          hi.wire_bytes < 2 * lo.wire_bytes) {
        shape_ok = false;
      }
    }
  }
  // Sublinear floor: across the keyspace sweep the digest-only
  // rejoin's SHARE of the full-keyspace cost must fall as K grows —
  // the floor follows occupied partitions (ring geometry), not bytes
  // of data, so a naive ship-everything rebalance pulls away from it.
  std::map<std::size_t, double> floor_ratio;
  for (const Row& r : rows) {
    if (r.mechanism == "dvv" && r.transition == "rejoin" &&
        r.divergence_pct == 0 && r.full_state_bytes > 0) {
      floor_ratio[r.keys] = static_cast<double>(r.wire_bytes) /
                            static_cast<double>(r.full_state_bytes);
    }
  }
  double prior_ratio = 1e18;
  for (const auto& [keys, ratio] : floor_ratio) {
    (void)keys;
    if (ratio >= prior_ratio) shape_ok = false;
    prior_ratio = ratio;
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: zero-divergence rejoin is digest-only and bytes "
              "grow with divergence: %s\n",
              shape_ok ? "yes" : "NO (regression!)");
  write_json(rows);
  std::printf("wrote BENCH_rebalance.json\n");
  return shape_ok ? 0 : 1;
}
