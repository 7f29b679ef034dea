// dvv/net/sim_transport.hpp
//
// Deterministic faulty network: delayed-delivery queues with seeded
// per-message drop, duplication and reorder, plus the named partitions
// every Transport supports.
//
// Time is a tick counter advanced by pump(); a message sent at tick T
// becomes due at T + 1 + extra, with extra drawn uniformly from
// [0, reorder_window].  pump() advances one tick and delivers every due
// message in (due, seq) order — so a message with a larger extra delay
// is overtaken by later sends, which is exactly a reordered network.
// Duplication enqueues a second, independently delayed copy sharing the
// SAME immutable encoded buffer (one encode per send, however many
// copies fly); drop discards at send time (the bytes still count as
// sent: the sender paid for them).
//
// Batched delivery (config.batch_delivery, on by default): each tick's
// due messages are collected in (due, seq) order, and every maximal run
// of CONSECUTIVE same-(from, to) frames is assembled into one real
// BatchMsg wire frame, strict-decoded whole, and delivered as a single
// envelope carrying the ordered sub-message views.  This is
// representation-only batching — the sub-messages are applied in
// exactly the order, with exactly the decode outcomes and counter
// increments, an unbatched run would produce (transport_batch_test
// proves byte-identity across all six mechanisms under chaos).  If a
// hostile injected frame rides a run and the assembled batch fails its
// strict decode, delivery falls back to per-frame decode-or-reject —
// again identical to unbatched.
//
// Partition semantics: a cut link loses messages at BOTH ends of their
// flight — send() refuses them (connection refused) and pump() discards
// queued ones whose link is cut at delivery time (in-flight loss when
// the partition forms) — so heal() never resurrects a message that was
// in flight across the cut.
//
// Fault decisions are drawn from the config's seeded Rng at send time,
// in send order, independent of payload bytes.  Two transports with the
// same config seeing the same *sequence* of sends therefore make
// identical decisions even when the payload encodings differ — the
// property the lockstep oracle depends on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace dvv::net {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(SimTransportConfig config)
      : config_(config),
        rng_(config.seed),
        queue_(std::less<QueueKey>(),
               QueueAllocator(&net_pools().arena)) {}

  [[nodiscard]] const char* name() const noexcept override { return "sim"; }

  /// Serializes the message to real codec bytes (asserting they match
  /// the metered wire size) and drops any sender-attached decoded
  /// payload: whatever survives this transport's faults is decoded from
  /// the wire at delivery, like on a real network.
  void send(NodeId from, NodeId to, const std::shared_ptr<const Message>& msg,
            const std::shared_ptr<const void>& decoded = nullptr,
            std::size_t size_hint = 0) override;
  using Transport::send;

  /// Advances one tick and delivers every due message in (due, seq)
  /// order — coalescing same-link runs into batch envelopes when
  /// config().batch_delivery is set.  Messages whose link is cut by the
  /// active partition are discarded here — in-flight loss.  Returns the
  /// number of messages delivered (sub-messages, for batch envelopes).
  std::size_t pump() override;

  void settle() override {
    if (config_.auto_settle) drain();
  }

  [[nodiscard]] bool idle() const noexcept override { return queue_.empty(); }
  [[nodiscard]] std::size_t in_flight() const noexcept override {
    return queue_.size();
  }

  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }

  /// Puts RAW bytes on the wire as if a (possibly hostile) peer sent
  /// them: no fault draws, no serialization — the bytes go on the queue
  /// verbatim, due at the next tick, and face the same strict delivery
  /// decode every queued frame faces.  Malformed bytes are rejected and
  /// dropped at pump() (net.decode_reject / stats().decode_rejected),
  /// never delivered and never an abort.  This is the adversarial-input
  /// hook the decode-boundary tests and fuzz harnesses drive; the
  /// seeded fault stream is untouched, so injecting frames never
  /// perturbs a chaos twin's delivery schedule.
  void inject_raw(NodeId from, NodeId to, std::string bytes) {
    ++stats_.sent;
    stats_.wire_bytes += bytes.size();
    obs::NetMetrics& m = obs::net_metrics();
    m.msgs_sent.inc();
    m.wire_bytes_sent.inc(bytes.size());
    std::shared_ptr<std::string> buf = pooled_buffer();
    *buf = std::move(bytes);
    queue_.emplace(std::make_pair(tick_ + 1, next_seq_),
                   Queued{next_seq_, from, to, std::move(buf)});
    ++next_seq_;
  }

  /// Rewrites the fault rates in place (the queue and partition state
  /// are untouched).  Chaos tests quiesce with this — zero rates, heal,
  /// drain — before asserting about fixed points.
  void set_fault_rates(double drop_probability, double duplicate_probability,
                       std::size_t reorder_window) {
    config_.drop_probability = drop_probability;
    config_.duplicate_probability = duplicate_probability;
    config_.reorder_window = reorder_window;
  }

  [[nodiscard]] const SimTransportConfig& config() const noexcept {
    return config_;
  }

 private:
  /// A message on the wire: immutable encoded bytes, shared between a
  /// message and its fault-injected duplicates (one encode per send).
  struct Queued {
    std::uint64_t seq = 0;
    NodeId from = 0;
    NodeId to = 0;
    std::shared_ptr<const std::string> bytes;
  };

  /// Delivers one queued frame as a single envelope (a standalone
  /// BatchMsg frame as its sub-views).  Returns messages delivered (0 on
  /// decode rejection).
  std::size_t deliver_queued(const Queued& queued) {
    return deliver_frame(queued.seq, queued.from, queued.to, *queued.bytes,
                         stats_, batch_views_);
  }

  /// Coalesces due_[begin, end) — a same-link run — into one BatchMsg
  /// envelope; falls back to per-frame delivery if the assembled frame
  /// fails its strict decode (hostile injected bytes in the run).
  std::size_t deliver_run(std::size_t begin, std::size_t end);

  using QueueKey = std::pair<std::uint64_t, std::uint64_t>;
  using QueueEntry = std::pair<const QueueKey, Queued>;
  using QueueAllocator = util::ArenaAllocator<QueueEntry>;

  SimTransportConfig config_;
  util::Rng rng_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_seq_ = 0;
  /// (due tick, seq) -> message; seq makes ties FIFO and keys unique.
  /// Nodes come from the net arena — steady state allocates none.
  std::map<QueueKey, Queued, std::less<QueueKey>, QueueAllocator> queue_;
  /// pump() scratch (capacity retained across ticks): the tick's due
  /// frames, the assembled batch frame, and its decoded sub-views.
  std::vector<Queued> due_;
  std::string batch_bytes_;
  std::vector<MessageView> batch_views_;
};

}  // namespace dvv::net
