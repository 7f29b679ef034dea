// dvv/net/transport.hpp
//
// The pluggable message-passing layer between replicas.
//
// A Transport carries opaque encoded messages (net/message.hpp) from
// one replica to another and hands them to a delivery sink installed by
// the owning cluster.  Three implementations:
//
//   InlineTransport    synchronous immediate delivery — provably
//                      byte-identical to the pre-transport direct-call
//                      semantics (tests/transport_equivalence_test.cpp);
//                      the default, and the zero-overhead baseline
//                      bench_transport measures against.
//
//   SimTransport       deterministic seeded fault injection: per-message
//                      drop probability, duplication, reordering via
//                      delayed-delivery queues, and named partitions that
//                      cut the node set into isolated groups.  Delivery
//                      happens in pump() ticks, so "in flight" is real
//                      queued state a crash or partition can destroy.
//
//   ThreadedTransport  shard-per-thread delivery behind dvvd
//                      (net/threaded_transport.hpp): each frame crosses
//                      to the destination's shard thread as real bytes.
//
// Every transport delivers the same form: an Envelope holding one
// MessageView (net/message.hpp) — one frame, one message, one sink
// call.  SimTransport and ThreadedTransport serialize every message to
// real bytes at send and strict-decode them into a view at delivery, so
// the fault plane exercises the true wire encoding.  The inline
// loopback skips serialization, the way a production stack treats
// loopback: its view aliases the sender's message, the sender may
// attach the already-decoded state payload, and the metered size is the
// exact codec size (net::wire_size) — zero copies, so the message layer
// costs nothing on the hot path.  Either way wire accounting is the
// same bytes-on-the-wire number, and every transport is done with the
// sender's message (and its decoded payload) when send() returns, so
// senders lend both by reference.
//
// Partitions live in the base class: they are a topology fact, not a
// timing artifact, so every transport honors them — an InlineTransport
// under partition({A},{B}) drops cross-group sends on the spot (a
// refused connection), while SimTransport also kills queued messages
// whose link is cut before delivery (in-flight loss).
//
// Determinism contract: a transport makes no random choice of its own
// beyond the seeded Rng its config provides.  Identical configs and
// identical send sequences produce identical delivery schedules, drops
// and duplicates — fault decisions are drawn at send time in send
// order, independent of payload bytes, which is what lets a mirrored
// oracle run replay the exact same network weather against two
// mechanisms whose encodings differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dvv::net {

/// Uniformly random two-way split of {0, 1, ..., n-1} with both groups
/// nonempty — the partition-storm shape the simulator, the trace
/// generator and the chaos tests all inject (one draw sequence:
/// shuffle, then cut point).  `Id` is the caller's node-id type.
template <typename Id>
[[nodiscard]] std::vector<std::vector<Id>> random_split(util::Rng& rng,
                                                        std::size_t n) {
  DVV_ASSERT(n >= 2);
  std::vector<Id> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = static_cast<Id>(i);
  rng.shuffle(nodes);
  const std::size_t cut = 1 + rng.index(n - 1);
  std::vector<std::vector<Id>> groups(2);
  groups[0].assign(nodes.begin(), nodes.begin() + cut);
  groups[1].assign(nodes.begin() + cut, nodes.end());
  return groups;
}

/// One delivery, as every transport hands it to the sink: `view`, the
/// delivered message as a non-owning view over the received bytes (or,
/// inline, over the sender's message).  Valid only during the sink call.
struct Envelope {
  std::uint64_t seq = 0;  ///< global send order (assigned by the transport)
  NodeId from = 0;
  NodeId to = 0;
  MessageView view;
  /// Sender-attached fast-path payload (the decoded sibling state a
  /// state-bearing message carries), non-null only when the transport
  /// delivered the sender's message unserialized.  It points at live
  /// sender state, so it is only safe to use during a synchronous
  /// delivery inside send(); any transport that queues messages drops
  /// it at send time and lets the receiver decode the message's state
  /// field like a real peer would (the byte-faithful SimTransport does
  /// exactly that).
  const void* decoded = nullptr;
};

/// Cumulative transport accounting (observability for tests/benches).
struct TransportStats {
  std::size_t sent = 0;             ///< messages handed to send()
  std::size_t delivered = 0;        ///< messages delivered (incl. duplicates)
  std::size_t dropped = 0;          ///< lost to the drop probability
  std::size_t duplicated = 0;       ///< extra copies enqueued
  std::size_t partition_dropped = 0;  ///< lost to a cut link (send or delivery)
  std::size_t wire_bytes = 0;       ///< payload bytes of every send
  /// Frames that failed the strict delivery decode and were dropped
  /// (net.decode_reject).  Never bumped by traffic this transport
  /// framed itself — only hostile bytes (inject_raw, a future socket
  /// peer) can be malformed.
  std::size_t decode_rejected = 0;
};

class Transport {
 public:
  using Sink = std::function<void(const Envelope&)>;

  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Installs the delivery callback (the owning cluster's apply path).
  /// Must be set before the first send.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Hands one message to the wire.  The transport is done with `msg`
  /// and `decoded` when this returns: it delivers inline or encodes the
  /// message to bytes, so the caller may refill its slot at once.
  /// `decoded` optionally points at the sender's already-decoded state
  /// payload for zero-copy local delivery (see Envelope::decoded).
  /// `size_hint`, when nonzero, is the message's exact wire_size —
  /// fan-out senders compute it once and every send of the shared
  /// message skips the re-walk.
  virtual void send(NodeId from, NodeId to, const Message& msg,
                    const void* decoded = nullptr,
                    std::size_t size_hint = 0) = 0;

  /// Delivers due messages (one tick of simulated network time).
  /// Returns the number of messages delivered.  Inline transports have
  /// nothing queued and return 0.
  virtual std::size_t pump() = 0;

  /// Pumps until nothing remains in flight.  Queued messages whose
  /// links are cut by an active partition are dropped, not kept.
  std::size_t drain() {
    std::size_t n = 0;
    while (!idle()) n += pump();
    return n;
  }

  /// Cluster synchronization point (end of a top-level operation).
  /// Inline: no-op.  SimTransport: drains when auto_settle is set, so
  /// the chaos-default transport reorders and duplicates *within* an
  /// operation but never leaks messages across operation boundaries.
  virtual void settle() {}

  [[nodiscard]] virtual bool idle() const noexcept { return true; }
  [[nodiscard]] virtual std::size_t in_flight() const noexcept { return 0; }

  // ---- named partitions ---------------------------------------------------

  /// Cuts the node set into isolated groups: a message may cross only
  /// between nodes of the same group.  Nodes named in no group form one
  /// implicit remainder group (so partition({{0}}, "iso") isolates node
  /// 0 from everyone else).  Replaces any previous partition.
  void partition(const std::vector<std::vector<NodeId>>& groups,
                 std::string label = {}) {
    group_of_.clear();
    std::size_t id = 1;  // 0 is the implicit remainder group
    for (const auto& group : groups) {
      for (const NodeId node : group) {
        DVV_ASSERT_MSG(!group_of_.contains(node),
                       "net: node named in two partition groups");
        group_of_[node] = id;
      }
      ++id;
    }
    partitioned_ = true;
    partition_label_ = std::move(label);
  }

  /// Removes the partition: every link carries again.  Messages already
  /// lost to the cut stay lost (healing is not retroactive).
  void heal() {
    partitioned_ = false;
    group_of_.clear();
    partition_label_.clear();
  }

  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  [[nodiscard]] const std::string& partition_label() const noexcept {
    return partition_label_;
  }

  /// True when `from` -> `to` can carry under the current partition.
  [[nodiscard]] bool link_up(NodeId from, NodeId to) const {
    if (!partitioned_) return true;
    const auto ga = group_of_.find(from);
    const auto gb = group_of_.find(to);
    const std::size_t a = ga == group_of_.end() ? 0 : ga->second;
    const std::size_t b = gb == group_of_.end() ? 0 : gb->second;
    return a == b;
  }

  /// Virtual so a sharded transport can aggregate per-shard counters on
  /// demand (ThreadedTransport); call at quiescence for an exact total.
  [[nodiscard]] virtual const TransportStats& stats() const noexcept {
    return stats_;
  }

 protected:
  /// Hands the sink `view` after metering it as one delivered message
  /// at its encoded size.  `stats` is the caller's accounting block (per
  /// shard, for a sharded transport).
  void deliver(std::uint64_t seq, NodeId from, NodeId to,
               const MessageView& view, TransportStats& stats,
               const void* decoded = nullptr) {
    DVV_ASSERT_MSG(sink_ != nullptr, "net: transport has no delivery sink");
    ++stats.delivered;
    if (met_.msgs_delivered.armed()) {
      met_.msgs_delivered.inc();
      met_.delivered_by_type[view.index()].inc();
      met_.wire_bytes_delivered.inc(wire_size(view));
    }
    Envelope envelope;
    envelope.seq = seq;
    envelope.from = from;
    envelope.to = to;
    envelope.view = view;
    envelope.decoded = decoded;
    sink_(envelope);
  }

  /// The receive path for one whole frame of real bytes: strict decode
  /// into a view, then deliver.  Returns the messages delivered: 1, or 0
  /// when the frame is rejected — counted and dropped, never an abort.
  std::size_t deliver_frame(std::uint64_t seq, NodeId from, NodeId to,
                            std::string_view bytes, TransportStats& stats) {
    const std::optional<MessageView> view = decode_view_or_reject(bytes);
    if (!view.has_value()) {
      ++stats.decode_rejected;
      return 0;
    }
    deliver(seq, from, to, *view, stats);
    return 1;
  }

  Sink sink_;
  TransportStats stats_;
  /// The net.* catalog handles, resolved once (the singleton lookup is
  /// cheap but not free, and send/deliver touch these per message).
  obs::NetMetrics& met_ = obs::net_metrics();

 private:
  bool partitioned_ = false;
  std::string partition_label_;
  std::map<NodeId, std::size_t> group_of_;
};

/// Synchronous immediate delivery: send() invokes the sink before it
/// returns, in send order — the pre-transport direct-call semantics,
/// byte for byte.  Partitions still apply (a cut link refuses the send).
/// The sink's view aliases the sender's message and the sender's decoded
/// payload passes straight through (loopback skips serialization); wire
/// accounting still meters the exact encoded size.
class InlineTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "inline"; }

  void send(NodeId from, NodeId to, const Message& msg,
            const void* decoded = nullptr,
            std::size_t size_hint = 0) override {
    ++stats_.sent;
    const std::size_t size = size_hint != 0 ? size_hint : wire_size(msg);
    stats_.wire_bytes += size;
    if (met_.msgs_sent.armed()) {
      met_.msgs_sent.inc();
      met_.sent_by_type[msg.index()].inc();
      met_.wire_bytes_sent.inc(size);
    }
    if (!link_up(from, to)) {
      ++stats_.partition_dropped;
      met_.partition_dropped.inc();
      return;
    }
    deliver(next_seq_++, from, to, as_view(msg), stats_, decoded);
  }

  std::size_t pump() override { return 0; }

 private:
  std::uint64_t next_seq_ = 0;
};

enum class TransportKind : std::uint8_t { kInline = 0, kSim = 1, kThreaded = 2 };

/// Fault model of the simulated transport.  All probabilities are per
/// message (per copy, for duplicates); delays are in pump() ticks.
struct SimTransportConfig {
  std::uint64_t seed = 0x7ea7005ULL;
  double drop_probability = 0.0;       ///< P(message silently lost)
  double duplicate_probability = 0.0;  ///< P(a second copy is enqueued)
  std::size_t reorder_window = 0;      ///< max extra delivery delay (ticks)
  /// Drain at cluster sync points (end of put / deliver_hints / ...).
  /// On: faults stay within one operation — the chaos CI default, safe
  /// for code that never pumps.  Off: messages stay queued until the
  /// caller pumps — the mode for real in-flight windows (sim_store,
  /// the partition property tests).
  bool auto_settle = true;

  /// The DVV_TRANSPORT=chaos defaults: every test operation's fan-out
  /// is duplicated and reordered (delivery-order chaos that idempotent,
  /// commutative merges must absorb), with no silent loss — drops and
  /// partitions change *outcomes*, so they are injected by scenarios
  /// that assert about them, not blanket-applied to every suite.
  [[nodiscard]] static SimTransportConfig chaos_defaults() {
    SimTransportConfig config;
    config.duplicate_probability = 0.10;
    config.reorder_window = 3;
    config.auto_settle = true;
    return config;
  }
};

/// Shard layout of the threaded transport (net/threaded_transport.hpp).
/// Node n is owned by shard n % shards: all delivery to n — and all
/// mutation of n's replica — happens on that shard's thread.
struct ThreadedTransportConfig {
  std::size_t shards = 1;
};

struct TransportConfig {
  TransportKind kind;  // default set by default_transport_kind()
  SimTransportConfig sim{};
  ThreadedTransportConfig threaded{};

  TransportConfig();
};

/// Process-wide default transport kind: DVV_TRANSPORT=chaos flips every
/// default-configured cluster to SimTransport with chaos_defaults()
/// (CI runs the whole suite that way); anything else means inline.
[[nodiscard]] TransportKind default_transport_kind();

[[nodiscard]] std::unique_ptr<Transport> make_transport(const TransportConfig& config);

}  // namespace dvv::net
