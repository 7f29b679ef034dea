// bench_oracle_agreement — experiment E9: "DVV can precisely track
// causality among versions concurrently created by multiple clients",
// validated statistically.
//
// For every mechanism, runs N seeded contentious traces in lockstep with
// the causal-history oracle (continuous per-operation audits) and
// reports how many traces were tracked exactly, plus the aggregate
// anomaly counts.  This is the repository's empirical soundness table:
// DVV and DVVSet must be 10/10 exact; the baselines fail in their
// documented ways.
#include <cstdio>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "oracle/audit.hpp"
#include "util/fmt.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::StoreConfig;
using dvv::oracle::mirrored_run;
using dvv::workload::WorkloadSpec;

const std::vector<std::uint64_t> kSeeds{1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

/// `prune_cap` > 0 selects the pruned client-vv variant.
StoreConfig config(const char* mechanism, std::size_t prune_cap = 0) {
  StoreConfig cfg;
  cfg.mechanism = mechanism;
  cfg.prune_cap = prune_cap;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

WorkloadSpec spec(std::uint64_t seed, double replicate_probability,
                  bool crashes = false) {
  WorkloadSpec s;
  s.keys = 12;
  s.zipf_skew = 0.99;
  s.clients = 16;
  s.operations = 1200;
  s.read_before_write = 0.6;
  s.replicate_probability = replicate_probability;
  s.anti_entropy_every = 40;
  if (crashes) {
    s.fail_probability = 0.03;
    s.recover_probability = 0.06;
    s.servers = 6;
    s.hinted_handoff = true;
  }
  s.seed = seed;
  return s;
}

void run_row(dvv::util::TextTable& table, const char* name,
             double replicate_probability, const StoreConfig& cfg,
             bool crashes = false) {
  std::size_t exact = 0;
  std::uint64_t lost = 0, false_sib = 0, checked = 0;
  for (const auto seed : kSeeds) {
    const auto run = mirrored_run(spec(seed, replicate_probability, crashes), cfg);
    exact += run.report.exact() ? 1u : 0u;
    lost += run.report.lost_updates();
    false_sib += run.report.false_siblings();
    checked += run.report.values_checked;
  }
  table.row({name,
             crashes ? "crashy" : dvv::util::fixed(replicate_probability, 1),
             std::to_string(exact) + "/" + std::to_string(kSeeds.size()),
             std::to_string(lost), std::to_string(false_sib),
             std::to_string(checked)});
}

}  // namespace

int main() {
  std::printf("==== E9: mechanism-vs-oracle agreement over %zu seeded traces ====\n",
              kSeeds.size());
  std::printf("6 servers, R=3, 12 hot keys, 1200 writes/trace, 40%% blind\n");
  std::printf("writers, continuous per-op audits vs causal histories\n\n");

  dvv::util::TextTable table;
  table.header({"mechanism", "repl. p", "exact traces", "lost", "false sib",
                "values checked"});

  // Partial replication: the hard regime (reads can miss writes).
  run_row(table, "dvv", 0.6, config("dvv"));
  run_row(table, "dvvset", 0.6, config("dvvset"));
  run_row(table, "vve (WinFS)", 0.6, config("vve"));
  run_row(table, "client-vv", 0.6, config("client-vv"));
  run_row(table, "server-vv", 0.6, config("server-vv"));
  // Full replication: read-your-writes holds; client-vv recovers,
  // server-vv still fails (its flaw needs only racing clients).
  run_row(table, "dvv", 1.0, config("dvv"));
  run_row(table, "dvvset", 1.0, config("dvvset"));
  run_row(table, "client-vv", 1.0, config("client-vv"));
  run_row(table, "client-vv cap=4", 1.0, config("client-vv", 4));
  run_row(table, "server-vv", 1.0, config("server-vv"));
  // Crash regime: fail-stop outages + hinted handoff.  Sound clocks must
  // not care where the bytes were parked.
  run_row(table, "dvv", 1.0, config("dvv"), /*crashes=*/true);
  run_row(table, "dvvset", 1.0, config("dvvset"), /*crashes=*/true);
  run_row(table, "server-vv", 1.0, config("server-vv"), /*crashes=*/true);
  std::printf("%s\n", table.to_string().c_str());

  std::printf("shape check: dvv/dvvset 10/10 exact in BOTH regimes (the paper's\n");
  std::printf("precision claim); client-vv is exact only with read-your-writes\n");
  std::printf("(full replication) and loses data under partial replication via\n");
  std::printf("counter reuse — the historical Riak bug DVV fixed; server-vv\n");
  std::printf("fails everywhere clients race; pruning fails by design.\n");
  return 0;
}
