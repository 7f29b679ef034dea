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
// sent: the sender paid for them).  Each due frame is strict-decoded
// from its queued bytes and delivered as its own envelope.
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
  void send(NodeId from, NodeId to, const Message& msg,
            const void* decoded = nullptr,
            std::size_t size_hint = 0) override;

  /// Advances one tick and delivers every due message in (due, seq)
  /// order, one envelope each.  Messages whose link is cut by the
  /// active partition are discarded here — in-flight loss.  Returns the
  /// number of messages delivered.
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
};

}  // namespace dvv::net
