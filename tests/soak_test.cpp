// Soak test: one long, hostile trace — hot keys, many anonymous
// writers, partial replication, crashes and recoveries, sparse
// anti-entropy — run through the full stack with the oracle auditing
// every operation.  This is the closest the suite gets to "a week of
// production in a box": if any interaction between the ring, the
// replica workflow, failure handling and the DVV clocks is wrong, tens
// of thousands of audited values make it visible.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "kv/store.hpp"
#include "oracle/audit.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::StoreConfig;
using dvv::oracle::mirrored_run;
using dvv::workload::WorkloadSpec;

StoreConfig config(std::string mechanism) {
  StoreConfig cfg;
  cfg.mechanism = std::move(mechanism);
  cfg.servers = 8;
  cfg.replication = 3;
  cfg.vnodes = 32;
  return cfg;
}

WorkloadSpec hostile() {
  WorkloadSpec spec;
  spec.keys = 20;
  spec.zipf_skew = 1.1;  // very hot head keys
  spec.clients = 32;
  spec.operations = 8000;
  spec.read_before_write = 0.65;
  spec.replicate_probability = 0.5;
  spec.anti_entropy_every = 100;
  spec.fail_probability = 0.02;
  spec.recover_probability = 0.05;
  spec.servers = 8;
  spec.value_bytes = 24;
  spec.seed = 0x50a7;
  return spec;
}

TEST(Soak, DvvExactOverEightThousandHostileOperations) {
  auto spec = hostile();
  const auto run = mirrored_run(spec, config("dvv"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
  EXPECT_GT(run.report.values_checked, 50'000u)
      << "the audit must have real coverage";
  EXPECT_GT(run.subject_stats.failures, 10u) << "crashes must actually occur";
  EXPECT_EQ(run.subject_stats.puts, 8000u);
}

TEST(Soak, DvvSetExactOverEightThousandHostileOperations) {
  const auto run = mirrored_run(hostile(), config("dvvset"));
  EXPECT_TRUE(run.report.exact())
      << "lost=" << run.report.lost_updates()
      << " false=" << run.report.false_siblings();
}

TEST(Soak, MetadataStaysBoundedForTheWholeRun) {
  const auto cfg = config("dvv");
  const auto run = mirrored_run(hostile(), cfg);
  // Every GET reply's clock-entry count stays bounded by
  // siblings * (R + 1); with the observed sibling levels this caps far
  // below the 32-client population.
  EXPECT_LE(run.subject_stats.get_clock_entries.max(),
            run.subject_stats.get_siblings.max() *
                static_cast<double>(cfg.replication + 1));
  // And the p99 metadata per reply stays small in absolute terms.
  EXPECT_LT(run.subject_stats.get_metadata_bytes.p99(), 256.0);
}

}  // namespace
