// dvv/obs/obs.cpp
//
// Registry/exporter/flight-recorder implementation, the process-wide
// singletons, the env-knob parsers, and the DVV_ASSERT last-words hook
// (this translation unit defines util::detail::assert_fail_hook, which
// is what links it into every binary that can assert).
#include "obs/obs.hpp"

#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace dvv::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted catalog
/// names sanitize by mapping '.' and '-' to '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

/// Catalog names are identifier-shaped, but escape minimally anyway so
/// a hostile name cannot break the snapshot's framing.
[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

[[nodiscard]] std::string u64(std::uint64_t v) { return std::to_string(v); }

void append_histogram_json(std::string& out, const util::BucketHistogram& h) {
  out += "{\"count\":" + u64(h.total()) + ",\"sum\":" + u64(h.sum());
  out += ",\"p50\":" + util::json_number(h.p50(), 1);
  out += ",\"p99\":" + util::json_number(h.p99(), 1);
  out += ",\"p999\":" + util::json_number(h.p999(), 1);
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < util::BucketHistogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[' + u64(util::BucketHistogram::bucket_upper(i)) + ',' +
           u64(h.bucket(i)) + ']';
  }
  out += "]}";
}

[[nodiscard]] std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // dvv-lint: allow(wall-clock) — metrics-only monotonic stamp;
          // never read by sim-reachable control flow
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---- Registry --------------------------------------------------------------

std::uint64_t Registry::counter_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.load(std::memory_order_relaxed);
}

double Registry::gauge_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0
                             : it->second.load(std::memory_order_relaxed);
}

const util::BucketHistogram* Registry::find_histogram(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::reset() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cell] : counters_) {
    cell.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : gauges_) {
    cell.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : histograms_) cell.reset();
}

std::string Registry::prometheus_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, cell] : counters_) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + u64(cell.load(std::memory_order_relaxed)) + "\n";
  }
  for (const auto& [name, cell] : gauges_) {
    const std::string pname = prometheus_name(name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", cell.load(std::memory_order_relaxed));
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + buf + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " histogram\n";
    // Cumulative buckets up to the last occupied one, then +Inf.
    std::size_t last = 0;
    for (std::size_t i = 0; i < util::BucketHistogram::kBuckets; ++i) {
      if (hist.bucket(i) != 0) last = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= last && !hist.empty(); ++i) {
      cumulative += hist.bucket(i);
      out += pname + "_bucket{le=\"" +
             u64(util::BucketHistogram::bucket_upper(i)) + "\"} " +
             u64(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + u64(hist.total()) + "\n";
    out += pname + "_sum " + u64(hist.sum()) + "\n";
    out += pname + "_count " + u64(hist.total()) + "\n";
  }
  return out;
}

std::string Registry::json_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"enabled\":";
  out += enabled_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) +
           "\":" + u64(cell.load(std::memory_order_relaxed));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) +
           "\":" + util::json_number(cell.load(std::memory_order_relaxed));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    append_histogram_json(out, hist);
  }
  out += "}}";
  return out;
}

// ---- FlightRecorder --------------------------------------------------------

void FlightRecorder::configure(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_.store(capacity, std::memory_order_relaxed);
  ring_.assign(capacity, FlightEvent{});
  next_seq_ = 0;
  if (start_us_ == 0) start_us_ = steady_now_us();
}

std::size_t FlightRecorder::size() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  return next_seq_ < cap ? static_cast<std::size_t>(next_seq_) : cap;
}

void FlightRecorder::record(const char* category, const char* name,
                            std::uint64_t trace_id, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) noexcept {
  if (capacity_.load(std::memory_order_relaxed) == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return;  // disarmed between the fast check and the lock
  FlightEvent& slot = ring_[next_seq_ % cap];
  slot.seq = next_seq_++;
  slot.t_us = steady_now_us() - start_us_;
  slot.trace_id = trace_id;
  slot.category = category;
  slot.name = name;
  slot.a = a;
  slot.b = b;
  slot.c = c;
}

void FlightRecorder::clear() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  next_seq_ = 0;
  for (FlightEvent& e : ring_) e = FlightEvent{};
}

std::string FlightRecorder::dump_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  const std::size_t n =
      next_seq_ < cap ? static_cast<std::size_t>(next_seq_) : cap;
  std::string out = "{\"recorded\":" + u64(next_seq_) +
                    ",\"dropped\":" + u64(next_seq_ - n) + ",\"events\":[";
  const std::uint64_t first_seq = next_seq_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    const FlightEvent& e = ring_[(first_seq + i) % cap];
    if (i != 0) out += ',';
    out += "{\"seq\":" + u64(e.seq) + ",\"t_us\":" + u64(e.t_us) +
           ",\"trace\":" + u64(e.trace_id) + ",\"cat\":\"" + e.category +
           "\",\"name\":\"" + e.name + "\",\"a\":" + u64(e.a) +
           ",\"b\":" + u64(e.b) + ",\"c\":" + u64(e.c) + "}";
  }
  out += "]}";
  return out;
}

bool FlightRecorder::dump_to_file(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::string json = dump_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

// ---- env knobs -------------------------------------------------------------

namespace detail {

bool parse_metrics_env(const char* value) {
  if (value == nullptr || value[0] == '\0') return false;
  const std::string_view v(value);
  if (v == "on" || v == "1") return true;
  if (v == "off" || v == "0") return false;
  // A typo (e.g. DVV_METRICS=On in a CI leg) must not silently measure
  // nothing and pass — same contract as DVV_MECHANISM.
  std::fprintf(stderr,
               "DVV_METRICS=\"%s\" is not recognized; expected \"on\" or "
               "\"off\"\n",
               value);
  std::abort();
}

std::size_t parse_flight_env(const char* value) {
  if (value == nullptr || value[0] == '\0') return 0;
  const std::string_view v(value);
  if (v == "off" || v == "0") return 0;
  if (v == "on") return 4096;
  bool numeric = true;
  for (const char c : v) {
    numeric = numeric && std::isdigit(static_cast<unsigned char>(c)) != 0;
  }
  if (numeric) return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  std::fprintf(stderr,
               "DVV_FLIGHT_RECORDER=\"%s\" is not recognized; expected "
               "\"on\", \"off\", or a capacity\n",
               value);
  std::abort();
}

/// Assert-time last words: dump the armed flight recorder to
/// DVV_FLIGHT_DUMP (default ./flight_recorder.json).
void dump_flight_on_assert() noexcept {
  const FlightRecorder& rec = flight();
  if (!rec.enabled()) return;
  const char* path = std::getenv("DVV_FLIGHT_DUMP");
  if (path == nullptr || path[0] == '\0') path = "flight_recorder.json";
  if (rec.dump_to_file(path)) {
    std::fprintf(stderr, "dvv: flight recorder dumped %zu events to %s\n",
                 rec.size(), path);
  } else {
    std::fprintf(stderr, "dvv: flight recorder dump to %s failed\n", path);
  }
}

}  // namespace detail

// ---- process-wide singletons ----------------------------------------------

Registry& registry() {
  static Registry global(detail::parse_metrics_env(std::getenv("DVV_METRICS")));
  return global;
}

void set_metrics_enabled(bool on) noexcept { registry().set_enabled(on); }

FlightRecorder& flight() {
  static FlightRecorder* global = [] {
    auto* rec = new FlightRecorder();  // leaked: must outlive static dtors
    rec->configure(detail::parse_flight_env(std::getenv("DVV_FLIGHT_RECORDER")));
    return rec;
  }();
  return *global;
}

// ---- layer catalogs --------------------------------------------------------

NetMetrics& net_metrics() {
  static NetMetrics m = [] {
    NetMetrics out;
    Registry& r = registry();
    out.msgs_sent = r.counter("net.msgs_sent");
    out.msgs_delivered = r.counter("net.msgs_delivered");
    out.msgs_dropped = r.counter("net.msgs_dropped");
    out.msgs_duplicated = r.counter("net.msgs_duplicated");
    out.msgs_reordered = r.counter("net.msgs_reordered");
    out.partition_dropped = r.counter("net.partition_dropped");
    out.wire_bytes_sent = r.counter("net.wire_bytes_sent");
    out.wire_bytes_delivered = r.counter("net.wire_bytes_delivered");
    out.decode_reject = r.counter("net.decode_reject");
    out.decode_reject_unknown = r.counter("net.decode_reject.unknown");
    out.alloc_envelopes = r.counter("net.alloc.envelopes");
    out.alloc_encode_buffers = r.counter("net.alloc.encode_buffers");
    for (std::size_t i = 0; i < kMessageTypes; ++i) {
      out.sent_by_type[i] =
          r.counter(std::string("net.sent.") + kMessageTypeNames[i]);
      out.delivered_by_type[i] =
          r.counter(std::string("net.delivered.") + kMessageTypeNames[i]);
      out.decode_reject_by_type[i] =
          r.counter(std::string("net.decode_reject.") + kMessageTypeNames[i]);
    }
    return out;
  }();
  return m;
}

CoordMetrics& coord_metrics() {
  static CoordMetrics m = [] {
    CoordMetrics out;
    Registry& r = registry();
    out.reads_started = r.counter("coord.reads_started");
    out.writes_started = r.counter("coord.writes_started");
    out.requests_quorum = r.counter("coord.requests_quorum");
    out.requests_timeout = r.counter("coord.requests_timeout");
    out.requests_unavailable = r.counter("coord.requests_unavailable");
    out.replies_duplicate_dropped = r.counter("coord.replies_duplicate_dropped");
    out.replies_late_dropped = r.counter("coord.replies_late_dropped");
    out.replies_stale_dropped = r.counter("coord.replies_stale_dropped");
    out.latency_ticks = r.histogram("coord.latency_ticks");
    return out;
  }();
  return m;
}

AaeMetrics& aae_metrics() {
  static AaeMetrics m = [] {
    AaeMetrics out;
    Registry& r = registry();
    out.sessions = r.counter("aae.sessions");
    out.rounds = r.counter("aae.rounds");
    out.nodes_exchanged = r.counter("aae.nodes_exchanged");
    out.keys_compared = r.counter("aae.keys_compared");
    out.keys_shipped = r.counter("aae.keys_shipped");
    out.wire_bytes = r.counter("aae.wire_bytes");
    return out;
  }();
  return m;
}

WalMetrics& wal_metrics() {
  static WalMetrics m = [] {
    WalMetrics out;
    Registry& r = registry();
    out.appends = r.counter("wal.appends");
    out.fsyncs = r.counter("wal.fsyncs");
    out.segments_sealed = r.counter("wal.segments_sealed");
    out.compactions = r.counter("wal.compactions");
    out.compaction_records_dropped = r.counter("wal.compaction_records_dropped");
    out.recoveries = r.counter("wal.recoveries");
    out.records_replayed = r.counter("wal.records_replayed");
    out.torn_records_dropped = r.counter("wal.torn_records_dropped");
    out.replay_us = r.histogram("wal.replay_us");
    return out;
  }();
  return m;
}

ServerMetrics& server_metrics() {
  static ServerMetrics m = [] {
    ServerMetrics out;
    Registry& r = registry();
    out.connections_accepted = r.counter("server.connections_accepted");
    out.connections_closed = r.counter("server.connections_closed");
    out.requests_get = r.counter("server.requests.get");
    out.requests_put = r.counter("server.requests.put");
    out.requests_admin = r.counter("server.requests.admin");
    out.responses_sent = r.counter("server.responses_sent");
    out.bytes_read = r.counter("server.bytes_read");
    out.bytes_written = r.counter("server.bytes_written");
    out.reads_paused = r.counter("server.reads_paused");
    out.decode_reject = r.counter("server.decode_reject");
    out.reject_oversized_frame =
        r.counter("server.decode_reject.oversized_frame");
    out.reject_bad_opcode = r.counter("server.decode_reject.bad_opcode");
    out.reject_bad_fields = r.counter("server.decode_reject.bad_fields");
    out.reject_trailing_bytes =
        r.counter("server.decode_reject.trailing_bytes");
    out.reject_bad_token = r.counter("server.decode_reject.bad_token");
    return out;
  }();
  return m;
}

StoreMetrics& store_metrics() {
  static StoreMetrics m = [] {
    StoreMetrics out;
    Registry& r = registry();
    out.gets = r.counter("store.gets");
    out.puts = r.counter("store.puts");
    out.begin_reads = r.counter("store.begin_reads");
    out.begin_writes = r.counter("store.begin_writes");
    out.status_ok = r.counter("store.status_ok");
    out.status_unavailable = r.counter("store.status_unavailable");
    out.status_bad_token = r.counter("store.status_bad_token");
    out.anti_entropy_runs = r.counter("store.anti_entropy_runs");
    return out;
  }();
  return m;
}

MembershipMetrics& membership_metrics() {
  static MembershipMetrics m = [] {
    MembershipMetrics out;
    Registry& r = registry();
    out.joins = r.counter("membership.joins");
    out.leaves = r.counter("membership.leaves");
    out.removals = r.counter("membership.removals");
    out.epochs_minted = r.counter("membership.epochs_minted");
    out.transfers_started = r.counter("membership.transfers_started");
    out.transfers_completed = r.counter("membership.transfers_completed");
    out.partitions_flipped = r.counter("membership.partitions_flipped");
    out.transfer_keys_shipped = r.counter("membership.transfer_keys_shipped");
    out.transfer_wire_bytes = r.counter("membership.transfer_wire_bytes");
    out.hints_retargeted = r.counter("membership.hints_retargeted");
    out.rejoin_incarnations = r.counter("membership.rejoin_incarnations");
    return out;
  }();
  return m;
}

}  // namespace dvv::obs

namespace dvv::util::detail {

// Constant-initialized to the obs dump: installed before any code runs,
// and the reference from assert.hpp's inline assert_fail is what pulls
// this object file out of libdvv into every linking binary.
void (*assert_fail_hook)() noexcept = &dvv::obs::detail::dump_flight_on_assert;

}  // namespace dvv::util::detail
