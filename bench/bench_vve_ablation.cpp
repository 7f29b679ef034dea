// bench_vve_ablation — experiment E11 (related work, §3): version
// vectors with exceptions (WinFS) vs dotted version vectors.
//
// The paper's §3 argument: VVE can express any causal history via
// exception lists, but "in most multi-version distributed storage
// systems, a client can only replace all versions in the repository by
// a new version, making DVV with a single dot sufficient".  Both
// mechanisms are exact (E9); this ablation measures what the general
// encoding costs relative to the single dot:
//
//   1. per-GET metadata bytes and total clock slots on an identical
//      end-to-end workload (both exact, so identical sibling sets);
//   2. comparison cost: VVE subset-testing walks the represented sets,
//      DVV does one dot lookup.
#include <chrono>
#include <cstdio>
#include <string>

#include "codec/clock_codec.hpp"
#include "core/dotted_version_vector.hpp"
#include "core/vve.hpp"
#include "kv/store.hpp"
#include "util/fmt.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::StoreConfig;
using dvv::util::fixed;
using dvv::workload::WorkloadSpec;

StoreConfig config(const char* mechanism) {
  StoreConfig cfg;
  cfg.mechanism = mechanism;
  cfg.servers = 6;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

WorkloadSpec spec_for(std::size_t clients) {
  WorkloadSpec spec;
  spec.keys = 24;
  spec.zipf_skew = 0.99;
  spec.clients = clients;
  spec.operations = 3000;
  spec.read_before_write = 0.7;
  spec.replicate_probability = 0.7;
  spec.anti_entropy_every = 100;
  spec.seed = 0xE11;
  return spec;
}

dvv::workload::ReplayStats run_workload(std::size_t clients, const char* mechanism) {
  const StoreConfig cfg = config(mechanism);
  const auto trace = dvv::workload::generate_trace(spec_for(clients), cfg.replication);
  const auto store = dvv::kv::make_store(cfg);
  return dvv::workload::replay(*store, trace);
}

template <typename F>
double time_ns(F&& f, int iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() / iters;
}

}  // namespace

int main() {
  std::printf("==== E11 (related work §3): VVE (WinFS) vs DVV ====\n\n");

  // ---- end-to-end metadata on identical workloads ----------------------
  dvv::util::TextTable meta;
  meta.header({"clients", "mechanism", "GET meta B (mean)", "p95",
               "clock slots/GET", "final meta bytes"});
  for (const std::size_t clients : {16u, 64u, 256u}) {
    const auto vve = run_workload(clients, "vve");
    const auto dvv_s = run_workload(clients, "dvv");
    meta.row({std::to_string(clients), "vve",
              fixed(vve.get_metadata_bytes.mean(), 1),
              fixed(vve.get_metadata_bytes.p95(), 0),
              fixed(vve.get_clock_entries.mean(), 2),
              std::to_string(vve.final_metadata_bytes)});
    meta.row({std::to_string(clients), "dvv",
              fixed(dvv_s.get_metadata_bytes.mean(), 1),
              fixed(dvv_s.get_metadata_bytes.p95(), 0),
              fixed(dvv_s.get_clock_entries.mean(), 2),
              std::to_string(dvv_s.final_metadata_bytes)});
  }
  std::printf("%s\n", meta.to_string().c_str());

  // ---- comparison cost on equivalent clocks ----------------------------
  // History: n servers each contributed k=32 events; version X is the
  // sibling created from a stale read (one event above a shared past).
  dvv::util::TextTable cost;
  cost.header({"history events", "vve compare ns", "dvv compare ns"});
  for (const std::size_t n : {2u, 8u, 32u, 128u}) {
    constexpr dvv::core::Counter kPerActor = 32;
    dvv::core::VersionVector past;
    dvv::core::VersionVectorWithExceptions vve_past;
    for (dvv::core::ActorId a = 0; a < n; ++a) {
      past.set(a, kPerActor);
      for (dvv::core::Counter c = 1; c <= kPerActor; ++c) {
        vve_past.add(dvv::core::Dot{a, c});
      }
    }
    const dvv::core::DottedVersionVector dvv_a(dvv::core::Dot{0, kPerActor + 1}, past);
    const dvv::core::DottedVersionVector dvv_b(dvv::core::Dot{1, kPerActor + 1}, past);
    auto vve_a = vve_past;
    vve_a.add(dvv::core::Dot{0, kPerActor + 1});
    auto vve_b = vve_past;
    vve_b.add(dvv::core::Dot{1, kPerActor + 1});

    const double vve_ns = time_ns(
        [&] {
          volatile auto o = vve_a.compare(vve_b);
          (void)o;
        },
        2000);
    const double dvv_ns = time_ns(
        [&] {
          volatile auto o = dvv_a.compare(dvv_b);
          (void)o;
        },
        20000);
    cost.row({std::to_string(n * kPerActor), fixed(vve_ns, 1), fixed(dvv_ns, 1)});
  }
  std::printf("%s\n", cost.to_string().c_str());

  std::printf("shape check: identical sibling sets (both exact), but VVE pays\n");
  std::printf("exception bookkeeping and set-walk comparisons that grow with\n");
  std::printf("history size, while DVV's dot keeps both flat — §3's \"DVV with\n");
  std::printf("a single dot [is] sufficient\" for the storage workflow.\n");
  return 0;
}
