// dvv/obs/metrics.hpp
//
// The layer metric catalogs: one struct of handles per subsystem, all
// registered against the global obs::registry() under layer-prefixed
// names ("net.msgs_dropped", "coord.requests_timeout",
// "aae.keys_shipped", ...).  Instrumented call sites grab the catalog
// singleton once and bump handles — never the registry map — so the
// hot-path cost is the handle's single enabled-check.
//
// This header deliberately knows nothing about net/kv/sync/store types
// (obs sits directly above util/).  The per-message-type counter
// arrays are sized and named here; net/message.hpp static_asserts
// that kMessageTypes matches the Message variant, so adding a message
// type without extending the catalog is a compile error.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/obs.hpp"

namespace dvv::obs {

/// Message-type axis of the net.* counters, in net::Message variant
/// order (checked by a static_assert in net/message.hpp).
inline constexpr std::size_t kMessageTypes = 8;
inline constexpr const char* kMessageTypeNames[kMessageTypes] = {
    "replicate", "hint",      "hint_deliver", "hint_ack",
    "read_req",  "read_resp", "write_req",    "write_resp"};

/// net.* — transport accounting: per-message-type send/deliver counts,
/// fault taxonomy, wire bytes.  Sends and faults are bumped where each
/// transport (src/net) makes them; deliveries only by the shared
/// Transport::deliver (net/transport.hpp), once per delivered view.
struct NetMetrics {
  Counter msgs_sent;           ///< net.msgs_sent
  Counter msgs_delivered;      ///< net.msgs_delivered
  Counter msgs_dropped;        ///< net.msgs_dropped (seeded loss)
  Counter msgs_duplicated;     ///< net.msgs_duplicated
  Counter msgs_reordered;      ///< net.msgs_reordered (extra delay > 0)
  Counter partition_dropped;   ///< net.partition_dropped
  Counter wire_bytes_sent;     ///< net.wire_bytes_sent
  Counter wire_bytes_delivered;  ///< net.wire_bytes_delivered
  Counter sent_by_type[kMessageTypes];       ///< net.sent.<type>
  Counter delivered_by_type[kMessageTypes];  ///< net.delivered.<type>
  /// Strict-decode rejections of inbound frames (net::decode_or_reject):
  /// hostile or corrupted bytes that did not parse as any message.  The
  /// future socket front-end alerts on this; inside the repo only
  /// injected-malformed tests and fuzz harnesses ever bump it.
  Counter decode_reject;                        ///< net.decode_reject
  Counter decode_reject_by_type[kMessageTypes]; ///< net.decode_reject.<type>
  /// Frames rejected before a plausible type tag could be read (empty,
  /// truncated-varint, or out-of-range tag) — no per-type attribution.
  Counter decode_reject_unknown;  ///< net.decode_reject.unknown
  /// net.alloc.* — pool MISSES on the message hot path (net/message.hpp
  /// installs these as the net pools' miss hooks).  Each counts the
  /// acquisitions that had to touch the global allocator; at steady
  /// state both must sit at ~0 — the "zero allocations per op" claim
  /// bench_transport asserts instead of assuming.
  Counter alloc_envelopes;       ///< net.alloc.envelopes (arena blocks)
  Counter alloc_encode_buffers;  ///< net.alloc.encode_buffers
};
[[nodiscard]] NetMetrics& net_metrics();

/// coord.* — quorum coordination: request taxonomy, reply hygiene,
/// request latency in coordination ticks.  Bumped by kv/coordinator.hpp.
struct CoordMetrics {
  Counter reads_started;        ///< coord.reads_started
  Counter writes_started;       ///< coord.writes_started
  Counter requests_quorum;      ///< coord.requests_quorum
  Counter requests_timeout;     ///< coord.requests_timeout
  Counter requests_unavailable; ///< coord.requests_unavailable
  Counter replies_duplicate_dropped;  ///< coord.replies_duplicate_dropped
  Counter replies_late_dropped;       ///< coord.replies_late_dropped
  Counter replies_stale_dropped;      ///< coord.replies_stale_dropped
  HistogramHandle latency_ticks;      ///< coord.latency_ticks (start->terminal)
};
[[nodiscard]] CoordMetrics& coord_metrics();

/// aae.* — digest anti-entropy effort, summed over sessions.  Bumped
/// at the end of every sync/SyncSession::run; SyncStats stays the
/// per-session view of the same numbers.
struct AaeMetrics {
  Counter sessions;         ///< aae.sessions
  Counter rounds;           ///< aae.rounds
  Counter nodes_exchanged;  ///< aae.nodes_exchanged
  Counter keys_compared;    ///< aae.keys_compared
  Counter keys_shipped;     ///< aae.keys_shipped
  Counter wire_bytes;       ///< aae.wire_bytes
};
[[nodiscard]] AaeMetrics& aae_metrics();

/// wal.* — write-ahead-log backend activity.  Bumped by
/// store/wal_backend.cpp.
struct WalMetrics {
  Counter appends;         ///< wal.appends
  Counter fsyncs;          ///< wal.fsyncs (modeled group commits)
  Counter segments_sealed; ///< wal.segments_sealed
  Counter compactions;     ///< wal.compactions
  Counter compaction_records_dropped;  ///< wal.compaction_records_dropped
  Counter recoveries;      ///< wal.recoveries
  Counter records_replayed;      ///< wal.records_replayed
  Counter torn_records_dropped;  ///< wal.torn_records_dropped
  HistogramHandle replay_us;     ///< wal.replay_us (wall-clock, per recover)
};
[[nodiscard]] WalMetrics& wal_metrics();

/// store.* — the kv::Store facade: op counts and the StoreStatus
/// taxonomy (kBadToken included).  Bumped by kv/store.cpp.
struct StoreMetrics {
  Counter gets;          ///< store.gets (get, get_local, get_direct)
  Counter puts;          ///< store.puts (put/put_at/put_with_handoff)
  Counter begin_reads;   ///< store.begin_reads
  Counter begin_writes;  ///< store.begin_writes
  Counter status_ok;           ///< store.status_ok
  Counter status_unavailable;  ///< store.status_unavailable
  Counter status_bad_token;    ///< store.status_bad_token
  Counter anti_entropy_runs;   ///< store.anti_entropy_runs (digest sweeps)
};
[[nodiscard]] StoreMetrics& store_metrics();

/// server.* — the dvvd socket front-end: connection lifecycle, request
/// traffic, and the strict-decode rejection taxonomy for client frames
/// (the first bytes a hostile peer controls).  Bumped by src/server.
struct ServerMetrics {
  Counter connections_accepted;  ///< server.connections_accepted
  Counter connections_closed;    ///< server.connections_closed
  Counter requests_get;          ///< server.requests.get
  Counter requests_put;          ///< server.requests.put
  Counter requests_admin;        ///< server.requests.admin (join/leave/
                                 ///  ring-info via the admin loop)
  Counter responses_sent;        ///< server.responses_sent
  Counter bytes_read;            ///< server.bytes_read
  Counter bytes_written;         ///< server.bytes_written
  Counter reads_paused;          ///< server.reads_paused (flow control)
  /// server.decode_reject — total client frames rejected at the strict
  /// boundary, plus the per-cause taxonomy below.  A frame-level reject
  /// (oversized/short) poisons the stream and closes the connection; a
  /// payload-level reject (bad opcode/fields/token) is answered with an
  /// error response and the stream continues.
  Counter decode_reject;            ///< server.decode_reject
  Counter reject_oversized_frame;   ///< server.decode_reject.oversized_frame
  Counter reject_bad_opcode;        ///< server.decode_reject.bad_opcode
  Counter reject_bad_fields;        ///< server.decode_reject.bad_fields
  Counter reject_trailing_bytes;    ///< server.decode_reject.trailing_bytes
  Counter reject_bad_token;         ///< server.decode_reject.bad_token
};
[[nodiscard]] ServerMetrics& server_metrics();

/// membership.* — elastic ring membership (src/membership + the cluster
/// glue): epoch lifecycle, transfer effort (metered SEPARATELY from the
/// steady-state aae.* series — rebalance traffic must not masquerade as
/// anti-entropy), and the ownership-change hygiene counters the
/// regression tests pin.  Bumped by kv/cluster.hpp.
struct MembershipMetrics {
  Counter joins;             ///< membership.joins
  Counter leaves;            ///< membership.leaves (graceful)
  Counter removals;          ///< membership.removals (crash-removal)
  Counter epochs_minted;     ///< membership.epochs_minted
  Counter transfers_started;    ///< membership.transfers_started
  Counter transfers_completed;  ///< membership.transfers_completed
  Counter partitions_flipped;   ///< membership.partitions_flipped
  Counter transfer_keys_shipped;  ///< membership.transfer_keys_shipped
  Counter transfer_wire_bytes;    ///< membership.transfer_wire_bytes
  /// Hints whose parked owner lost the partition and were redirected to
  /// a current owner instead of misdelivered (satellite regression).
  Counter hints_retargeted;  ///< membership.hints_retargeted
  /// Rejoining ids pushed through the clock-incarnation bump so
  /// pre-departure dots are never reused.
  Counter rejoin_incarnations;  ///< membership.rejoin_incarnations
};
[[nodiscard]] MembershipMetrics& membership_metrics();

}  // namespace dvv::obs
