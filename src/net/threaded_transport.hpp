// dvv/net/threaded_transport.hpp
//
// The shard-per-thread transport behind `dvvd` (ROADMAP item 1): real
// threads, byte-faithful wire delivery, and the same Transport contract
// the single-threaded twins run against.
//
// Sharding model.  Node n is owned by shard `n % shards`.  A shard is
// a serial execution domain: every message addressed TO a node — and
// therefore every mutation of that node's replica and of the
// coordination engine that serves it — is processed on the owning
// shard's thread, one entry at a time.  Shards share NOTHING but the
// inter-shard queues; the architecture's no-shared-state-across-
// replicas invariant does the rest.  With shards == 1 this degrades to
// a queued single-threaded transport.
//
// Queues.  One mutex-ring inbox per shard (mutex + condvar + deque).
// send() serializes the message SYNCHRONOUSLY on the sending thread
// into a plain owned std::string — never a pooled buffer: the net
// pools are thread_local freelists, and a pooled handle released on
// another thread would race the owner's freelist.  At delivery the
// receiving shard strict-decodes the bytes (decode_view_or_reject),
// exactly like SimTransport: bytes this transport framed always parse,
// and a frame that does not is counted and dropped, never an abort.
// The sender's `decoded` fast-path pointer is dropped at send time (it
// points at live sender state — see Envelope::decoded).
//
// Quiescence.  A global atomic in-flight count is incremented BEFORE an
// entry is enqueued and decremented AFTER its sink returns, so a
// cascade (delivery that sends onward) keeps the count nonzero through
// the handoff: when it reads 0 with acquire ordering, every effect of
// every delivery is visible to the reader.  quiesce() blocks on that;
// settle() quiesces when called from outside the shard threads and is
// a no-op on a shard thread (a sink that settled would deadlock on
// itself).  Control-plane operations (partition/heal, anti-entropy,
// stats aggregation, crash/recover) are only legal at quiescence.
//
// Drive modes.
//   * Self-hosted (default): start() spawns one worker per shard that
//     blocks on the inbox condvar; the first send()/post() lazily
//     starts the workers.  stop() (and the destructor) drains and
//     joins.
//   * Hosted: an embedding event loop (the dvvd epoll server) calls
//     set_wake_hook(shard, fn) — invoked on enqueue, e.g. writing an
//     eventfd — and pump_shard(shard) from its own thread whenever
//     woken.  start() is never called; the host owns the threads.
//
// Tasks.  post(shard, fn) enqueues an arbitrary closure into a shard's
// serial domain (counted in flight like a message); run_on(shard, fn)
// additionally blocks the caller until it ran.  This is how client
// operations (Store::put_direct, the twin tests, bench drivers) enter
// a shard: cluster state for node n may only be touched from n's
// shard, and run_on is the door.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/message.hpp"
#include "net/transport.hpp"

namespace dvv::net {

class ThreadedTransport final : public Transport {
 public:
  explicit ThreadedTransport(ThreadedTransportConfig config);
  ~ThreadedTransport() override;

  [[nodiscard]] const char* name() const noexcept override { return "threaded"; }

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(NodeId node) const noexcept {
    return static_cast<std::size_t>(node) % shards_.size();
  }

  /// Serializes on the calling thread, enqueues to shard_of(to).  Safe
  /// from any thread.  Lazily starts the self-hosted workers unless a
  /// wake hook was installed (hosted mode).
  void send(NodeId from, NodeId to, const Message& msg,
            const void* decoded = nullptr,
            std::size_t size_hint = 0) override;

  /// Enqueues a closure into `shard`'s serial domain.  Safe from any
  /// thread, including shard threads (cross-shard request forwarding).
  void post(std::size_t shard, std::function<void()> task);

  /// post + wait until the closure ran.  Must NOT be called from a
  /// shard thread (self-deadlock when shard == caller's shard).
  void run_on(std::size_t shard, const std::function<void()>& task);

  /// From a control thread: waits until nothing is in flight.  The
  /// workers deliver; this only blocks.  Returns 0 (delivery counts
  /// live in stats().delivered).
  std::size_t pump() override;

  /// Blocks until every queued entry (and everything those entries
  /// sent) has been processed.
  void quiesce();

  /// Quiesce from outside; no-op on a shard thread (a delivery sink
  /// that settled would wait for its own entry to finish).
  void settle() override;

  [[nodiscard]] bool idle() const noexcept override;
  [[nodiscard]] std::size_t in_flight() const noexcept override;

  /// Aggregates per-shard delivery counters into the base accounting.
  /// Exact only at quiescence (shards bump their own blocks racily
  /// otherwise — relaxed atomics, no torn reads, but no snapshot).
  [[nodiscard]] const TransportStats& stats() const noexcept override;

  // ---- hosted mode --------------------------------------------------------

  /// Installs the host's wake callback for `shard` (called on enqueue,
  /// possibly from any thread — it must be async-safe to the host's
  /// loop, e.g. an eventfd write).  Installing any hook disables the
  /// self-hosted workers; install before the first send.
  void set_wake_hook(std::size_t shard, std::function<void()> hook);

  /// Processes everything currently queued for `shard` on the CALLING
  /// thread (the host's event loop).  Returns entries processed.
  std::size_t pump_shard(std::size_t shard);

  /// Spawns the self-hosted workers (idempotent).  Implicit on first
  /// send/post when no wake hook is installed.
  void start();

  /// Drains, stops and joins the self-hosted workers (idempotent).
  void stop();

 private:
  struct Entry {
    std::uint64_t seq = 0;
    NodeId from = 0;
    NodeId to = 0;
    std::string bytes;            ///< encoded frame (empty for tasks)
    std::function<void()> task;   ///< set for post() entries
  };

  /// One shard's serial domain.  Aligned out of false sharing: the
  /// inbox mutex and the stats block are the only cross-thread traffic.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Entry> inbox;
    std::function<void()> wake_hook;
    std::thread worker;
    bool stopping = false;
    /// Per-shard delivery accounting, owned by the shard thread; the
    /// aggregate view is stats().  Plain (non-atomic) because only the
    /// owning shard writes it and readers aggregate at quiescence
    /// under the inbox mutex.
    TransportStats local;
  };

  void enqueue(std::size_t shard, Entry entry);
  void process(Shard& shard, Entry& entry);
  void worker_loop(std::size_t index);
  [[nodiscard]] bool on_shard_thread() const noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
  /// Entries enqueued but not fully processed (cascade-safe; see file
  /// comment).  release on decrement / acquire on the zero-read gives
  /// the quiescent reader visibility of every delivery's effects.
  std::atomic<std::size_t> in_flight_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::mutex lifecycle_mutex_;  ///< guards start/stop and hosted_
  bool started_ = false;
  bool hosted_ = false;
  /// Aggregation target for stats() (mutable: stats() is const).
  mutable TransportStats aggregated_;
};

}  // namespace dvv::net
