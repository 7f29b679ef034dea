// dvv/net/threaded_transport.cpp
//
// See the header for the sharding, quiescence and drive-mode contracts.
// Threading rules enforced here:
//
//   * a frame is serialized on the SENDING thread into a plain owned
//     string — pooled buffers are thread_local and must never cross;
//   * per-shard stats blocks are written either under the shard's inbox
//     mutex (send-side fields) or by the owning shard thread
//     (delivery-side fields) — distinct fields, no overlap;
//   * the in-flight count is incremented before enqueue and decremented
//     (release) after the sink returns, so a zero read (acquire) means
//     every delivery effect is visible to the quiescent observer.
#include "net/threaded_transport.hpp"

#include <utility>

#include "util/assert.hpp"

namespace dvv::net {

ThreadedTransport::ThreadedTransport(ThreadedTransportConfig config) {
  DVV_ASSERT_MSG(config.shards >= 1, "net: threaded transport needs >= 1 shard");
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ThreadedTransport::~ThreadedTransport() { stop(); }

bool ThreadedTransport::on_shard_thread() const noexcept {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& shard : shards_) {
    if (shard->worker.joinable() && shard->worker.get_id() == self) return true;
  }
  return false;
}

void ThreadedTransport::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || hosted_) return;
  started_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

void ThreadedTransport::stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_) return;
  }
  // Drain while the workers still run and started_ is still set: a
  // delivery that sends onward re-enters the lazy start(), which must
  // stay a no-op rather than spawn over a joinable worker.
  quiesce();
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    started_ = false;
  }
  for (const auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->ready.notify_all();
  }
  for (const auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
    shard->stopping = false;
    shard->worker = std::thread();
  }
}

void ThreadedTransport::set_wake_hook(std::size_t shard,
                                      std::function<void()> hook) {
  DVV_ASSERT(shard < shards_.size());
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    DVV_ASSERT_MSG(!started_,
                   "net: install wake hooks before the first send/post");
    hosted_ = true;
  }
  const std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
  shards_[shard]->wake_hook = std::move(hook);
}

void ThreadedTransport::enqueue(std::size_t index, Entry entry) {
  Shard& shard = *shards_[index];
  // Count BEFORE enqueue: a cascade's child entry is in the count
  // before the parent's decrement, so in-flight can only read 0 when
  // the whole causal tree has run.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  bool need_start = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inbox.push_back(std::move(entry));
    if (shard.wake_hook) {
      shard.wake_hook();  // hosted: must be async-safe (eventfd write)
    } else {
      need_start = true;
    }
  }
  shard.ready.notify_one();
  if (need_start) start();  // lazy self-hosted spin-up (idempotent)
}

void ThreadedTransport::send(NodeId from, NodeId to, const Message& msg,
                             const void* decoded, std::size_t size_hint) {
  // Byte-faithful like SimTransport: the frame crosses as its real
  // codec encoding and the sender's decoded pointer never crosses a
  // thread boundary.
  (void)decoded;
  Entry entry;
  entry.from = from;
  entry.to = to;
  // encode_into targets a thread_local scratch Writer, so concurrent
  // senders each use their own; the result is a plain owned string the
  // receiving shard can free without touching our pools.
  encode_into(msg, entry.bytes);
  DVV_ASSERT_MSG(size_hint == 0 || entry.bytes.size() == size_hint,
                 "net: sender's size hint disagrees with the real encoding");
  const std::size_t index = shard_of(to);
  Shard& shard = *shards_[index];
  if (met_.msgs_sent.armed()) {
    met_.msgs_sent.inc();
    met_.sent_by_type[msg.index()].inc();
    met_.wire_bytes_sent.inc(entry.bytes.size());
  }
  if (!link_up(from, to)) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.local.sent;
    shard.local.wire_bytes += entry.bytes.size();
    ++shard.local.partition_dropped;
    met_.partition_dropped.inc();
    return;
  }
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.local.sent;
    shard.local.wire_bytes += entry.bytes.size();
  }
  enqueue(index, std::move(entry));
}

void ThreadedTransport::post(std::size_t shard, std::function<void()> task) {
  DVV_ASSERT(shard < shards_.size());
  Entry entry;
  entry.task = std::move(task);
  enqueue(shard, std::move(entry));
}

void ThreadedTransport::run_on(std::size_t shard,
                               const std::function<void()>& task) {
  struct Done {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  } done;
  post(shard, [&task, &done] {
    task();
    const std::lock_guard<std::mutex> lock(done.mutex);
    done.done = true;
    done.cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done.mutex);
  done.cv.wait(lock, [&done] { return done.done; });
}

void ThreadedTransport::process(Shard& shard, Entry& entry) {
  if (entry.task) {
    entry.task();
    return;
  }
  // Strict delivery decode over the received bytes — exactly the
  // SimTransport boundary: frames this transport encoded always parse.
  (void)deliver_frame(entry.seq, entry.from, entry.to, entry.bytes,
                      shard.local);
}

std::size_t ThreadedTransport::pump_shard(std::size_t index) {
  DVV_ASSERT(index < shards_.size());
  Shard& shard = *shards_[index];
  std::deque<Entry> batch;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    batch.swap(shard.inbox);
  }
  std::size_t processed = 0;
  for (Entry& entry : batch) {
    process(shard, entry);
    ++processed;
    // Decrement AFTER the sink returned: everything this delivery sent
    // onward is already counted, so 0 means fully quiescent.
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(quiesce_mutex_);
      quiesce_cv_.notify_all();
    }
  }
  return processed;
}

void ThreadedTransport::worker_loop(std::size_t index) {
  Shard& shard = *shards_[index];
  while (true) {
    std::deque<Entry> batch;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.ready.wait(lock, [&shard] {
        return shard.stopping || !shard.inbox.empty();
      });
      if (shard.stopping && shard.inbox.empty()) return;
      // Swap out the whole inbox: one lock round per run of entries,
      // not per entry.
      batch.swap(shard.inbox);
    }
    for (Entry& entry : batch) {
      process(shard, entry);
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(quiesce_mutex_);
        quiesce_cv_.notify_all();
      }
    }
  }
}

void ThreadedTransport::quiesce() {
  DVV_ASSERT_MSG(!on_shard_thread(),
                 "net: quiesce from a shard thread would self-deadlock");
  std::unique_lock<std::mutex> lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

std::size_t ThreadedTransport::pump() {
  // The workers deliver; a control-plane pump just waits for them.
  quiesce();
  return 0;
}

void ThreadedTransport::settle() {
  if (on_shard_thread()) return;  // a sink must not wait on itself
  quiesce();
}

bool ThreadedTransport::idle() const noexcept {
  return in_flight_.load(std::memory_order_acquire) == 0;
}

std::size_t ThreadedTransport::in_flight() const noexcept {
  return in_flight_.load(std::memory_order_acquire);
}

const TransportStats& ThreadedTransport::stats() const noexcept {
  // Exact at quiescence: the acquire read in idle()/quiesce() ordered
  // every shard's last stats write before this aggregation.
  aggregated_ = TransportStats{};
  for (const auto& shard : shards_) {
    const TransportStats& s = shard->local;
    aggregated_.sent += s.sent;
    aggregated_.delivered += s.delivered;
    aggregated_.dropped += s.dropped;
    aggregated_.duplicated += s.duplicated;
    aggregated_.partition_dropped += s.partition_dropped;
    aggregated_.wire_bytes += s.wire_bytes;
    aggregated_.decode_rejected += s.decode_rejected;
  }
  return aggregated_;
}

}  // namespace dvv::net
