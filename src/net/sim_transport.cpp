// dvv-hot-path: the per-message send/deliver path.  dvv_lint's
// no-alloc-in-hot-path rule audits this file — encode buffers, queue
// nodes and batch scratch all come from the net pools / retained
// capacity, never the global allocator.
#include "net/sim_transport.hpp"

#include <cstdlib>
#include <string_view>
#include <utility>

#include "net/threaded_transport.hpp"

namespace dvv::net {

namespace {

/// LEB128 append to a string — how the batch assembler writes the
/// frame header and sub-frame length prefixes into retained capacity.
void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

}  // namespace

void SimTransport::send(NodeId from, NodeId to,
                        const std::shared_ptr<const Message>& msg,
                        const std::shared_ptr<const void>& decoded,
                        std::size_t size_hint) {
  // This transport is byte-faithful: the message crosses as its real
  // codec encoding and the sender's decoded fast-path payload is
  // dropped on the floor (never retained, so the by-ref parameter costs
  // this transport no refcount traffic at all).
  (void)decoded;
  std::shared_ptr<std::string> bytes = pooled_buffer();
  encode_into(*msg, *bytes);
  DVV_ASSERT_MSG(size_hint == 0 || bytes->size() == size_hint,
                 "net: sender's size hint disagrees with the real encoding");
  ++stats_.sent;
  stats_.wire_bytes += bytes->size();
  obs::NetMetrics& m = met_;
  if (m.msgs_sent.armed()) {
    m.msgs_sent.inc();
    m.sent_by_type[msg->index()].inc();
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

std::size_t SimTransport::deliver_run(std::size_t begin, std::size_t end) {
  // Assemble the run into a REAL BatchMsg wire frame and strict-decode
  // it whole — the batch path is the wire format, not a shortcut past
  // it.  Sub-frame views alias batch_bytes_, valid through the sink
  // call below.
  batch_bytes_.clear();
  append_varint(batch_bytes_, kBatchTag);    // tag
  append_varint(batch_bytes_, end - begin);  // count
  for (std::size_t k = begin; k < end; ++k) {
    append_varint(batch_bytes_, due_[k].bytes->size());
    batch_bytes_ += *due_[k].bytes;
  }
  batch_views_.clear();
  if (!try_decode_batch_views(batch_bytes_, batch_views_)) {
    // Hostile injected bytes rode the run: fall back to per-frame
    // delivery — each frame decodes or is rejected on its own, exactly
    // as an unbatched pump would have done.
    std::size_t n = 0;
    for (std::size_t k = begin; k < end; ++k) n += deliver_queued(due_[k]);
    return n;
  }
  deliver(due_[begin].seq, due_[begin].from, due_[begin].to, batch_views_,
          batch_bytes_.size(), stats_);
  return end - begin;
}

std::size_t SimTransport::pump() {
  ++tick_;
  // Phase 1: collect everything due at or before the new tick, in
  // (due, seq) order, applying the partition cut per frame exactly as
  // unbatched delivery would.  Sends triggered by the sinks below go to
  // tick_ + 1 at the earliest, so they cannot join this tick's set.
  due_.clear();
  while (!queue_.empty() && queue_.begin()->first.first <= tick_) {
    Queued queued = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    if (!link_up(queued.from, queued.to)) {
      ++stats_.partition_dropped;  // the partition cut it mid-flight
      met_.partition_dropped.inc();
      continue;
    }
    due_.push_back(std::move(queued));
  }
  // Phase 2: deliver in order, coalescing each maximal run of
  // consecutive same-link frames into one batch envelope.
  std::size_t delivered = 0;
  std::size_t i = 0;
  while (i < due_.size()) {
    std::size_t j = i + 1;
    if (config_.batch_delivery) {
      while (j < due_.size() && due_[j].from == due_[i].from &&
             due_[j].to == due_[i].to) {
        ++j;
      }
    }
    delivered += j - i == 1 ? deliver_queued(due_[i]) : deliver_run(i, j);
    i = j;
  }
  due_.clear();  // release the buffers back to the pool promptly
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
