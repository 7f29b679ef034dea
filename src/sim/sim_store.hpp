// dvv/sim/sim_store.hpp
//
// Event-driven simulation of the full client/server request path — the
// substitute for the paper's physical Riak cluster in the latency
// evaluation (E7, "better latency when serving requests").
//
// Each simulated client runs a closed loop on the shared EventQueue:
//
//   think -> GET request -> (server) -> GET reply -> PUT request
//        -> (coordinator applies, acks; replication fans out ASYNC)
//        -> PUT ack -> think -> ...
//
// Every network leg's delay is sampled from the default LatencyModel
// (sim/latency.hpp: the fixed LAN the paper's cluster sat on) with the
// *actual serialized size* of what crosses the wire: GET replies carry
// the sibling values plus their clocks, PUT requests carry the causal
// token plus the value.  Mechanisms with bigger clocks therefore pay
// their cost exactly where the paper says they do — on the wire and in
// serialization — and nowhere else.
//
// The simulator drives the type-erased kv::Store facade (src/kv/store):
// the mechanism is a RUNTIME choice (config.mechanism, defaulting to
// env DVV_MECHANISM), so one binary sweeps all six mechanisms without
// instantiating six copies of this whole harness — and the context each
// client carries between its GET and PUT is the same opaque CausalToken
// a real client would ferry, so the wire sizes the simulation meters
// are the wire-visible token sizes, headers included.
//
// Client operations are REAL coordinator requests (src/kv/coordinator):
// a GET is begin_read_at (R distinct replies complete it), a PUT is
// begin_write (W distinct acks complete it; the coordinator's local
// apply is the first, so R = W = 1 reproduces the historical
// coordinator-local behavior).  Scatter, replies and acks are queued
// messages in the store's SimTransport (src/net) — each sampled
// network leg schedules a transport pump, so "in flight" is state a
// reader cannot see yet and a crash or partition can destroy — and with
// R/W > 1 MANY client operations are concurrently in flight across
// partition storms and crash storms, completing (or timing out at
// `op_deadline_ms`) whenever their quorum of replies lands.
// Determinism: single-threaded event queue, every random choice from
// one seeded Rng (the transport's fault stream is forked from the same
// seed; the coordination engine makes no random choices at all).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "store/backend.hpp"
#include "sync/anti_entropy.hpp"
#include "util/stats.hpp"

namespace dvv::sim {

/// The simulator times out operations in simulated MILLISECONDS (the
/// op_deadline_ms watchdog events), so the engine's tick deadline is
/// pushed out of the way: coordination ticks advance once per pump,
/// i.e. once per network leg of ANY client, and a tick-based deadline
/// would make one op's patience depend on everyone else's traffic.
inline constexpr std::uint64_t kNoTickDeadline = 1ULL << 62;

struct SimStoreConfig {
  /// Causality mechanism by name ("dvv", "dvvset", "server-vv",
  /// "client-vv", "vve", "causal-history"); empty selects the process
  /// default (env DVV_MECHANISM, else "dvv").
  std::string mechanism{};

  std::size_t clients = 16;
  std::size_t keys = 64;
  double zipf_skew = 0.99;
  std::size_t ops_per_client = 200;  ///< read-modify-write cycles per client
  double think_ms = 2.0;             ///< mean think time between cycles
  std::size_t value_bytes = 64;      ///< payload size per write
  std::uint64_t seed = 1;

  /// Cluster topology (was hardcoded 5/3: partition scenarios need to
  /// vary the shape — a 2-server ring cannot even express a split, a
  /// 9-server one can lose a minority group and keep serving).
  std::size_t servers = 5;
  std::size_t replication = 3;

  /// Transport fault injection on the replication and coordination
  /// message layer (net::SimTransport): per-message drop/duplicate probability and
  /// reorder window (in pump ticks).
  double msg_drop_probability = 0.0;
  double msg_duplicate_probability = 0.0;
  std::size_t msg_reorder_window = 0;

  /// Partition storms: every ~`partition_interval_ms` (exponential) the
  /// ring is cut into two random groups for `partition_duration_ms`,
  /// then healed.  Messages crossing the cut — including in-flight ones
  /// — are lost; anti-entropy repairs the divergence after heal.
  /// 0 disables partitions.
  double partition_interval_ms = 0.0;
  double partition_duration_ms = 20.0;

  /// Background anti-entropy: every `aae_interval_ms` a random alive,
  /// connected replica pair runs one digest session in place (src/sync,
  /// Store::anti_entropy_digest_pair).  The session keeps both
  /// endpoints busy for the simulated duration of its metered wire
  /// traffic, and foreground requests hitting a busy replica stall for
  /// the residual — repair traffic competes with request latency.
  /// 0 disables background AAE.
  double aae_interval_ms = 0.0;

  /// Per-replica durability model (src/store).  With the default
  /// MemBackend a crash is total state loss; with WalBackend recovery
  /// replays the flushed log.
  store::BackendConfig storage{};

  /// Crash injection: every ~`crash_interval_ms` (exponential) a random
  /// alive replica truly crashes — volatile state dropped, un-flushed
  /// log tail lost — and recovers `crash_downtime_ms` later by storage
  /// replay (which keeps it busy for the replay's simulated duration).
  /// 0 disables crashes.  Requests routed to a crashed replica count as
  /// unavailable; replication deliveries to it are dropped.
  double crash_interval_ms = 0.0;
  double crash_downtime_ms = 25.0;
  /// P(a crash tears the trailing un-flushed record mid-write); the
  /// torn frame is rejected by CRC at recovery.
  double torn_write_probability = 0.0;

  /// Quorum coordination (src/kv/coordinator.hpp): a GET completes at
  /// `read_quorum` distinct replies, a PUT at `write_quorum` distinct
  /// acks (the coordinator's local apply/read is the first of each).
  /// R = W = 1 — the default — completes at the coordinator alone, the
  /// historical behavior; higher values put real scatter/reply traffic
  /// in flight, so concurrent client operations ride the same faulty
  /// queues as replication.  An operation still pending after
  /// `op_deadline_ms` of simulated time is finalized with whatever
  /// replies arrived (a timeout, reported degraded when below quorum).
  std::size_t read_quorum = 1;
  std::size_t write_quorum = 1;
  double op_deadline_ms = 50.0;
};

struct SimStoreResult {
  util::Samples get_latency_ms;   ///< request->reply round trip
  util::Samples put_latency_ms;   ///< request->ack round trip
  util::Samples cycle_latency_ms; ///< full GET+PUT cycle
  util::Samples get_reply_bytes;  ///< serialized reply payloads
  double sim_duration_ms = 0.0;
  std::uint64_t cycles = 0;

  // Background anti-entropy activity (zero when aae_interval_ms == 0).
  std::uint64_t aae_sessions = 0;
  sync::SyncStats aae_stats{};          ///< summed over all sessions
  util::Samples aae_session_bytes;      ///< wire bytes per session
  util::Samples aae_stall_ms;           ///< foreground stalls behind repair

  // Crash/recovery activity (zero when crash_interval_ms == 0).
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_torn_records = 0;      ///< CRC-rejected torn tails
  std::uint64_t unavailable_requests = 0;  ///< GET/PUT hit no alive replica
  std::uint64_t replication_drops = 0;     ///< fan-out lost to a dead target

  // Message-layer activity (net::SimTransport + cluster delivery).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;      ///< seeded drop probability
  std::uint64_t messages_duplicated = 0;
  std::uint64_t partition_drops = 0;       ///< lost to a cut link
  std::uint64_t partitions = 0;            ///< partition events injected
  std::uint64_t heals = 0;

  // Quorum-coordination activity (src/kv/coordinator.hpp).
  std::uint64_t reads_degraded = 0;        ///< completed below read_quorum
  std::uint64_t writes_degraded = 0;       ///< completed below intended fan-out
  std::uint64_t op_timeouts = 0;           ///< finalized at a deadline
  std::uint64_t late_replies_dropped = 0;  ///< reply after completion
  std::uint64_t duplicate_replies_dropped = 0;  ///< same responder twice
  std::uint64_t stale_replies_dropped = 0;      ///< reply to a reused slot
  std::uint64_t max_requests_in_flight = 0;     ///< concurrent client ops peak
};

/// Runs the closed-loop workload for the configured mechanism.  The
/// store is created inside so that every mechanism sees an identical
/// topology.  Aborts (assert) on an unknown mechanism name.
[[nodiscard]] SimStoreResult simulate_store(const SimStoreConfig& config);

}  // namespace dvv::sim
