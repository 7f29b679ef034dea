// Tests for the observability layer (src/obs): registry handle
// semantics, BucketHistogram bucket boundaries and quantiles, exporter
// goldens (Prometheus text + JSON snapshot), flight-recorder ring
// behavior, the env-knob parsers' loud-failure contract, and the
// assert-time flight dump (a death test that checks the JSON the
// crashing child leaves behind).
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace {

using dvv::obs::Counter;
using dvv::obs::FlightRecorder;
using dvv::obs::Gauge;
using dvv::obs::HistogramHandle;
using dvv::obs::Registry;
using dvv::util::BucketHistogram;

// ---- handles ---------------------------------------------------------------

TEST(Handles, DefaultConstructedHandlesAreInertAndSafe) {
  Counter c;
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(3.0);
  g.add(1.0);
  g.set_max(9.0);
  EXPECT_EQ(g.value(), 0.0);

  HistogramHandle h;
  h.record(42);
  EXPECT_EQ(h.histogram(), nullptr);
}

TEST(Handles, DisabledRegistryDropsBumpsButKeepsReads) {
  Registry reg(/*enabled=*/false);
  const Counter c = reg.counter("c");
  const Gauge g = reg.gauge("g");
  const HistogramHandle h = reg.histogram("h");

  c.inc(7);
  g.set(1.5);
  h.record(3);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_TRUE(h.histogram()->empty());

  reg.set_enabled(true);
  c.inc(7);
  g.set(1.5);
  h.record(3);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(g.value(), 1.5);
  EXPECT_EQ(h.histogram()->total(), 1u);
}

TEST(Handles, RegistrationIsIdempotentAndSharesTheCell) {
  Registry reg;
  const Counter a = reg.counter("same");
  const Counter b = reg.counter("same");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.counter_value("same"), 5u);
}

TEST(Handles, GaugeSetMaxIsAHighWatermark) {
  Registry reg;
  const Gauge g = reg.gauge("peak");
  g.set_max(3.0);
  g.set_max(1.0);  // lower: ignored
  EXPECT_EQ(g.value(), 3.0);
  g.set_max(8.0);
  EXPECT_EQ(g.value(), 8.0);
}

TEST(Registry, UnknownNamesReadAsZeroOrNull) {
  const Registry reg;
  EXPECT_EQ(reg.counter_value("never"), 0u);
  EXPECT_EQ(reg.gauge_value("never"), 0.0);
  EXPECT_EQ(reg.find_histogram("never"), nullptr);
}

TEST(Registry, ResetZeroesCellsButHandlesStayValid) {
  Registry reg;
  const Counter c = reg.counter("c");
  const HistogramHandle h = reg.histogram("h");
  c.inc(4);
  h.record(10);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_TRUE(h.histogram()->empty());
  c.inc();
  EXPECT_EQ(reg.counter_value("c"), 1u) << "handle must survive reset";
}

// ---- BucketHistogram -------------------------------------------------------

TEST(BucketHistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds exactly the value 0; bucket i (i >= 1) holds
  // [2^(i-1), 2^i - 1] — i.e. values of bit width i.
  EXPECT_EQ(BucketHistogram::bucket_index(0), 0u);
  EXPECT_EQ(BucketHistogram::bucket_index(1), 1u);
  EXPECT_EQ(BucketHistogram::bucket_index(2), 2u);
  EXPECT_EQ(BucketHistogram::bucket_index(3), 2u);
  EXPECT_EQ(BucketHistogram::bucket_index(4), 3u);
  EXPECT_EQ(BucketHistogram::bucket_index(7), 3u);
  EXPECT_EQ(BucketHistogram::bucket_index(8), 4u);
  EXPECT_EQ(BucketHistogram::bucket_index(~0ULL), 64u);

  EXPECT_EQ(BucketHistogram::bucket_upper(0), 0u);
  EXPECT_EQ(BucketHistogram::bucket_upper(1), 1u);
  EXPECT_EQ(BucketHistogram::bucket_upper(2), 3u);
  EXPECT_EQ(BucketHistogram::bucket_upper(3), 7u);
  EXPECT_EQ(BucketHistogram::bucket_upper(64), ~0ULL);

  // Every bucket's upper bound maps back into that bucket.
  for (std::size_t i = 0; i < BucketHistogram::kBuckets; ++i) {
    EXPECT_EQ(BucketHistogram::bucket_index(BucketHistogram::bucket_upper(i)), i);
  }
}

TEST(BucketHistogramTest, EmptyQuantilesAreNaN) {
  const BucketHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.p99()));
}

TEST(BucketHistogramTest, QuantileReturnsTheContainingBucketUpperBound) {
  BucketHistogram h;
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.sum(), 6u);
  // rank(0.5) = 2 -> second value lives in bucket [2,3] -> upper 3.
  EXPECT_EQ(h.p50(), 3.0);
  EXPECT_EQ(h.quantile(1.0), 3.0);
  // rank(tiny) clamps to the first value's bucket.
  EXPECT_EQ(h.quantile(0.0001), 1.0);
}

TEST(BucketHistogramTest, ZeroValuesLandInBucketZero) {
  BucketHistogram h;
  h.add(0);
  h.add(0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.p50(), 0.0);
}

TEST(BucketHistogramTest, MergeAddsBucketwise) {
  BucketHistogram a;
  BucketHistogram b;
  a.add(5);
  a.add(1000);
  b.add(5);
  b.add(70000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.sum(), 5u + 1000u + 5u + 70000u);
  EXPECT_EQ(a.bucket(BucketHistogram::bucket_index(5)), 2u);
  EXPECT_EQ(a.bucket(BucketHistogram::bucket_index(70000)), 1u);
}

TEST(BucketHistogramTest, ResetEmptiesEverything) {
  BucketHistogram h;
  h.add(9);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(BucketHistogram::bucket_index(9)), 0u);
}

// ---- exporters -------------------------------------------------------------

TEST(Exporters, PrometheusTextGolden) {
  Registry reg;
  reg.counter("a.b").inc(2);
  reg.gauge("g").set(1.5);
  const HistogramHandle h = reg.histogram("h");
  h.record(1);
  h.record(1);
  h.record(1);

  EXPECT_EQ(reg.prometheus_text(),
            "# TYPE a_b counter\n"
            "a_b 2\n"
            "# TYPE g gauge\n"
            "g 1.5\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"0\"} 0\n"
            "h_bucket{le=\"1\"} 3\n"
            "h_bucket{le=\"+Inf\"} 3\n"
            "h_sum 3\n"
            "h_count 3\n");
}

TEST(Exporters, JsonSnapshotGolden) {
  Registry reg;
  reg.counter("a.b").inc(2);
  reg.gauge("g").set(1.5);
  const HistogramHandle h = reg.histogram("h");
  h.record(1);
  h.record(1);
  h.record(1);

  EXPECT_EQ(reg.json_snapshot(),
            "{\"enabled\":true,"
            "\"counters\":{\"a.b\":2},"
            "\"gauges\":{\"g\":1.500},"
            "\"histograms\":{\"h\":{\"count\":3,\"sum\":3,"
            "\"p50\":1.0,\"p99\":1.0,\"p999\":1.0,"
            "\"buckets\":[[1,3]]}}}");
}

TEST(Exporters, EmptyRegistrySnapshotsAreWellFormed) {
  const Registry reg(/*enabled=*/false);
  EXPECT_EQ(reg.prometheus_text(), "");
  EXPECT_EQ(reg.json_snapshot(),
            "{\"enabled\":false,\"counters\":{},\"gauges\":{},"
            "\"histograms\":{}}");
}

// ---- global catalogs -------------------------------------------------------

TEST(GlobalCatalogs, CatalogHandlesFeedTheGlobalRegistry) {
  const bool was_enabled = dvv::obs::registry().enabled();
  dvv::obs::set_metrics_enabled(true);
  const std::uint64_t before =
      dvv::obs::registry().counter_value("coord.reads_started");
  dvv::obs::coord_metrics().reads_started.inc();
  EXPECT_EQ(dvv::obs::registry().counter_value("coord.reads_started"),
            before + 1);
  dvv::obs::set_metrics_enabled(was_enabled);
}

// ---- flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, DisarmedRecorderRecordsNothing) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.record("t", "e");
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dump_json(), "{\"recorded\":0,\"dropped\":0,\"events\":[]}");
}

TEST(FlightRecorderTest, RingKeepsTheLastCapacityEvents) {
  FlightRecorder rec;
  rec.configure(3);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record("t", "e", i, i * 10);
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.size(), 3u);

  const std::string dump = rec.dump_json();
  EXPECT_NE(dump.find("\"recorded\":5"), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":2"), std::string::npos);
  // Oldest SURVIVING event first: seqs 2, 3, 4.
  EXPECT_NE(dump.find("{\"seq\":2,"), std::string::npos);
  EXPECT_EQ(dump.find("{\"seq\":0,"), std::string::npos);
  EXPECT_EQ(dump.find("{\"seq\":1,"), std::string::npos);
  EXPECT_LT(dump.find("\"seq\":2,"), dump.find("\"seq\":4,"));
}

TEST(FlightRecorderTest, EventFieldsRoundTripThroughTheDump) {
  FlightRecorder rec;
  rec.configure(8);
  rec.record("coord", "read_start", 42, 1, 2, 3);
  const std::string dump = rec.dump_json();
  EXPECT_NE(dump.find("\"trace\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"cat\":\"coord\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"read_start\""), std::string::npos);
  EXPECT_NE(dump.find("\"a\":1,\"b\":2,\"c\":3"), std::string::npos);
}

TEST(FlightRecorderTest, ClearForgetsButStaysArmed) {
  FlightRecorder rec;
  rec.configure(4);
  rec.record("t", "e");
  rec.clear();
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.recorded(), 0u);
  rec.record("t", "e2");
  EXPECT_EQ(rec.size(), 1u);
}

TEST(FlightRecorderTest, DumpToFileWritesTheJson) {
  FlightRecorder rec;
  rec.configure(4);
  rec.record("t", "e", 9);
  const std::string path = ::testing::TempDir() + "obs_dump_roundtrip.json";
  ASSERT_TRUE(rec.dump_to_file(path.c_str()));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), rec.dump_json());
  std::remove(path.c_str());
}

// ---- env knobs -------------------------------------------------------------

TEST(EnvKnobs, MetricsParserAcceptsTheDocumentedValues) {
  using dvv::obs::detail::parse_metrics_env;
  EXPECT_FALSE(parse_metrics_env(nullptr));
  EXPECT_FALSE(parse_metrics_env(""));
  EXPECT_FALSE(parse_metrics_env("off"));
  EXPECT_FALSE(parse_metrics_env("0"));
  EXPECT_TRUE(parse_metrics_env("on"));
  EXPECT_TRUE(parse_metrics_env("1"));
}

TEST(EnvKnobs, FlightParserAcceptsTheDocumentedValues) {
  using dvv::obs::detail::parse_flight_env;
  EXPECT_EQ(parse_flight_env(nullptr), 0u);
  EXPECT_EQ(parse_flight_env(""), 0u);
  EXPECT_EQ(parse_flight_env("off"), 0u);
  EXPECT_EQ(parse_flight_env("0"), 0u);
  EXPECT_EQ(parse_flight_env("on"), 4096u);
  EXPECT_EQ(parse_flight_env("128"), 128u);
}

TEST(EnvKnobsDeathTest, JunkValuesAbortLoudly) {
  // Same contract as DVV_MECHANISM: a typo in a CI matrix leg must not
  // silently measure nothing and pass.
  EXPECT_DEATH((void)dvv::obs::detail::parse_metrics_env("On"),
               "not recognized");
  EXPECT_DEATH((void)dvv::obs::detail::parse_flight_env("always"),
               "not recognized");
}

// ---- assert-time flight dump -----------------------------------------------

TEST(FlightDumpDeathTest, AssertFailureLeavesAWellFormedDump) {
  const std::string path = ::testing::TempDir() + "obs_assert_dump.json";
  std::remove(path.c_str());
  ::setenv("DVV_FLIGHT_DUMP", path.c_str(), 1);
  dvv::obs::flight().configure(64);
  dvv::obs::flight().record("test", "before_crash", 7, 1, 2, 3);

  EXPECT_DEATH(
      {
        dvv::obs::flight().record("test", "at_crash", 8);
        DVV_ASSERT_MSG(false, "deliberate flight-dump crash");
      },
      "deliberate flight-dump crash");

  // The forked child inherited the armed recorder and dumped it on the
  // way down; both its pre-fork and its in-child events must be there.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "the crashing child left no dump at " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_EQ(dump.front(), '{');
  EXPECT_EQ(dump.back(), '}');
  EXPECT_NE(dump.find("\"events\":["), std::string::npos);
  EXPECT_NE(dump.find("before_crash"), std::string::npos);
  EXPECT_NE(dump.find("at_crash"), std::string::npos);

  std::remove(path.c_str());
  ::unsetenv("DVV_FLIGHT_DUMP");
  dvv::obs::flight().configure(0);
}

}  // namespace
