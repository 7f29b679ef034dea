// bench_store_metadata — experiment E6: the paper's Riak evaluation,
// metadata half ("a significant reduction in the size of metadata").
//
// End-to-end simulated store (6 servers, R=3), realistic mixed workload
// (Zipf keys, read-modify-write sessions plus anonymous blind writers,
// partial replication with periodic anti-entropy).  Sweeping the client
// population, we report what every GET reply carries in causality
// metadata — the bytes the paper's modified Riak stopped shipping.
//
// Expected shape: client-VV mean/p95 reply metadata grows with the
// client population (every writer leaves an entry); DVV and DVVSet stay
// flat; the pruned client-VV stays flat too but E8 shows what that
// costs in correctness.
#include <cstdio>
#include <string>

#include "kv/store.hpp"
#include "util/fmt.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::StoreConfig;
using dvv::util::fixed;
using dvv::workload::WorkloadSpec;

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

WorkloadSpec spec_for(std::size_t clients) {
  WorkloadSpec spec;
  spec.keys = 32;
  spec.zipf_skew = 0.99;
  spec.clients = clients;
  spec.operations = 4000;
  spec.read_before_write = 0.8;
  spec.replicate_probability = 0.8;
  spec.anti_entropy_every = 200;
  spec.value_bytes = 32;
  spec.seed = 0xE6;
  return spec;
}

void run_row(dvv::util::TextTable& table, std::size_t clients, const char* name,
             const StoreConfig& cfg) {
  const auto spec = spec_for(clients);
  const auto trace = dvv::workload::generate_trace(spec, cfg.replication);
  const auto store = dvv::kv::make_store(cfg);
  const auto stats = dvv::workload::replay(*store, trace);

  table.row({std::to_string(clients), name,
             fixed(stats.get_metadata_bytes.mean(), 1),
             fixed(stats.get_metadata_bytes.p95(), 0),
             fixed(stats.get_clock_entries.mean(), 2),
             fixed(stats.get_siblings.mean(), 2),
             std::to_string(stats.final_metadata_bytes)});
}

}  // namespace

int main() {
  std::printf("==== E6: end-to-end metadata on the wire (simulated Riak) ====\n");
  std::printf("6 servers, R=3, 32 hot keys (zipf .99), 4000 writes, 80%% RMW,\n");
  std::printf("replication p=0.8 with anti-entropy every 200 ops, seed=0xE6\n\n");

  dvv::util::TextTable table;
  table.header({"clients", "mechanism", "GET meta B (mean)", "p95",
                "clock entries/GET", "siblings/GET", "final meta bytes"});
  for (const std::size_t clients : {8u, 16u, 32u, 64u, 128u, 256u}) {
    run_row(table, clients, "client-vv", config("client-vv"));
    run_row(table, clients, "client-vv(cap10)", config("client-vv", 10));
    run_row(table, clients, "dvv", config("dvv"));
    run_row(table, clients, "dvvset", config("dvvset"));
    run_row(table, clients, "vve", config("vve"));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: client-vv metadata grows with the client column;\n");
  std::printf("dvv/dvvset stay flat (bounded by R=3 coordinating servers);\n");
  std::printf("the capped baseline is flat only because it discards history\n");
  std::printf("(see bench_pruning_safety for the damage).\n");
  return 0;
}
