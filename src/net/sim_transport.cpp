// dvv-hot-path: the per-message send/deliver path.  dvv_lint's
// no-alloc-in-hot-path rule audits this file — encode buffers and queue
// nodes come from the net pools, never the global allocator.
#include "net/sim_transport.hpp"

#include <cstdlib>
#include <string_view>
#include <utility>

#include "net/threaded_transport.hpp"

namespace dvv::net {

void SimTransport::send(NodeId from, NodeId to, const Message& msg,
                        const void* decoded, std::size_t size_hint) {
  // This transport is byte-faithful: the message crosses as its real
  // codec encoding and the sender's decoded fast-path payload is
  // dropped on the floor.
  (void)decoded;
  std::shared_ptr<std::string> bytes = pooled_buffer();
  encode_into(msg, *bytes);
  DVV_ASSERT_MSG(size_hint == 0 || bytes->size() == size_hint,
                 "net: sender's size hint disagrees with the real encoding");
  ++stats_.sent;
  stats_.wire_bytes += bytes->size();
  obs::NetMetrics& m = met_;
  if (m.msgs_sent.armed()) {
    m.msgs_sent.inc();
    m.sent_by_type[msg.index()].inc();
    m.wire_bytes_sent.inc(bytes->size());
  }
  // Fault decisions are drawn unconditionally and in a fixed order so
  // the consumed Rng stream depends only on the send sequence — never
  // on payload bytes or on the current partition.
  const bool dropped = rng_.chance(config_.drop_probability);
  const bool duplicated = rng_.chance(config_.duplicate_probability);
  const std::size_t window = config_.reorder_window;
  const std::uint64_t extra1 = window == 0 ? 0 : rng_.below(window + 1);
  const std::uint64_t extra2 = window == 0 ? 0 : rng_.below(window + 1);

  if (!link_up(from, to)) {
    ++stats_.partition_dropped;
    m.partition_dropped.inc();
    return;
  }
  if (dropped) {
    ++stats_.dropped;
    m.msgs_dropped.inc();
    return;
  }
  if (extra1 > 0) m.msgs_reordered.inc();  // overtakable: later sends can pass
  const std::uint64_t seq = next_seq_++;
  if (duplicated) {
    ++stats_.duplicated;
    m.msgs_duplicated.inc();
    // The copy SHARES the original's encoded buffer — duplication costs
    // a queue node, not a re-encode or a byte copy.
    const std::uint64_t copy_seq = next_seq_++;
    queue_.emplace(std::make_pair(tick_ + 1 + extra2, copy_seq),
                   Queued{copy_seq, from, to, bytes});
  }
  queue_.emplace(std::make_pair(tick_ + 1 + extra1, seq),
                 Queued{seq, from, to, std::move(bytes)});
}

std::size_t SimTransport::pump() {
  ++tick_;
  // Sends triggered by the sinks below go to tick_ + 1 at the earliest,
  // so they cannot become due during this tick.
  std::size_t delivered = 0;
  while (!queue_.empty() && queue_.begin()->first.first <= tick_) {
    const Queued queued = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    if (!link_up(queued.from, queued.to)) {
      ++stats_.partition_dropped;  // the partition cut it mid-flight
      met_.partition_dropped.inc();
      continue;
    }
    delivered += deliver_frame(queued.seq, queued.from, queued.to,
                               *queued.bytes, stats_);
  }
  return delivered;
}

TransportKind default_transport_kind() {
  static const TransportKind kind = [] {
    const char* v = std::getenv("DVV_TRANSPORT");
    if (v != nullptr && std::string_view(v) == "chaos") return TransportKind::kSim;
    return TransportKind::kInline;
  }();
  return kind;
}

TransportConfig::TransportConfig() : kind(default_transport_kind()) {
  if (kind == TransportKind::kSim) sim = SimTransportConfig::chaos_defaults();
}

std::unique_ptr<Transport> make_transport(const TransportConfig& config) {
  switch (config.kind) {
    case TransportKind::kSim:
      return std::make_unique<SimTransport>(config.sim);
    case TransportKind::kThreaded:
      return std::make_unique<ThreadedTransport>(config.threaded);
    case TransportKind::kInline:
      break;
  }
  return std::make_unique<InlineTransport>();
}

}  // namespace dvv::net
