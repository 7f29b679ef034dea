// dvv/server/server.hpp
//
// dvvd — the socket server over kv::Store, shard-per-thread.
//
// Thread model.  The store is built over a net::ThreadedTransport with
// S shards; replica n lives in shard n % S and is only ever touched on
// that shard's thread.  The server HOSTS the transport (drive mode 2 in
// threaded_transport.hpp): it spawns one event-loop thread per shard,
// each owning
//
//   * an epoll instance,
//   * an eventfd the transport's wake hook writes on enqueue,
//   * the client connections assigned to it (round-robin at accept;
//     shard 0 additionally owns the listening socket),
//
// and calls pump_shard() whenever the eventfd fires — so inter-replica
// messages, cross-shard request forwarding and client I/O all execute
// on the same per-shard serial domains.  No locks anywhere in the
// request path; shards communicate ONLY through transport messages and
// posted closures.
//
// Request routing.  A frame read on connection shard s parses on s.
// If the key's coordinator replica lives in shard s, the operation
// (Store::put_direct_local / get_local) runs inline; otherwise a
// closure is posted to the owner shard t, runs the operation there,
// and posts the encoded response back to s.  Responses are released
// in REQUEST order per connection (a per-connection reorder buffer
// keyed by arrival sequence) so pipelined clients see FIFO semantics
// regardless of which shards served them.
//
// Flow control.  A connection whose outbuf exceeds the pause threshold
// stops being read (EPOLLIN deregistered, server.reads_paused) until
// the kernel drains it below the resume threshold — a slow reader
// stalls only itself; its shard keeps serving every other connection
// and every transport delivery.
//
// Decode boundary.  Framing and payload parsing are src/server/
// protocol.hpp (shared with the fuzz harness).  A frame-level
// malformation (oversized/zero length claim) closes the connection; a
// payload-level one earns an error response and the stream continues.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kv/store.hpp"
#include "net/threaded_transport.hpp"
#include "server/protocol.hpp"

namespace dvv::server {

struct ServerConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read the bound port back)
  int backlog = 128;
  /// Outbuf size above which a connection's reads pause / resume.
  std::size_t outbuf_pause_bytes = 4u << 20;
  std::size_t outbuf_resume_bytes = 1u << 20;
};

class Server {
 public:
  /// The store MUST be backed by a ThreadedTransport (asserted) and
  /// must not have carried any traffic yet: the server installs the
  /// transport's wake hooks, which is only legal before the first
  /// send.  The store outlives the server.
  Server(kv::Store& store, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the per-shard event loops.
  void start();

  /// Stops accepting, closes every connection, drains the transport to
  /// quiescence and joins the loops.  Idempotent.
  void stop();

  /// The bound port (valid after start(); with config.port == 0 this
  /// is the kernel-assigned ephemeral port).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return loops_.size();
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    /// Encoded frames awaiting the kernel; [out_pos, size) is unsent.
    std::string outbuf;
    std::size_t out_pos = 0;
    /// Arrival sequence of the next request read off this connection.
    std::uint64_t next_arrival_seq = 0;
    /// Next sequence eligible to be released to the outbuf.
    std::uint64_t next_send_seq = 0;
    /// Completed-response payloads waiting on earlier sequences
    /// (ordered: release walks it from the front).
    std::map<std::uint64_t, std::string> done;
    bool want_write = false;   ///< EPOLLOUT currently registered
    bool reads_paused = false; ///< EPOLLIN currently deregistered
    bool broken = false;       ///< write error; close at next safe point
  };

  /// One shard's event loop state.  Touched only by its own thread
  /// (after start() wires it up).
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd; the transport wake hook writes it
    std::map<std::uint64_t, Connection> conns;
    std::thread thread;
  };

  /// One membership/ring request parked for the admin thread, with the
  /// coordinates needed to route its response back to the connection.
  struct AdminJob {
    std::size_t shard = 0;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Request req;
  };

  void run_loop(std::size_t shard);
  void handle_accept(std::size_t shard);
  void adopt_connection(std::size_t shard, int fd);
  void handle_readable(std::size_t shard, std::uint64_t conn_id);
  void handle_frame(std::size_t shard, Connection& conn, std::string payload);
  /// Runs a GET/PUT from connection `conn_id` (on `shard`) in coordinator
  /// shard `owner`'s serial domain, re-resolving on arrival, and posts
  /// the response back.
  void forward(std::size_t owner, std::size_t shard, std::uint64_t conn_id,
               std::uint64_t seq, Request req);
  /// Posts a finished response to its connection's shard (from any
  /// thread); closes the connection there if a write already broke it.
  void post_response(std::size_t shard, std::uint64_t conn_id,
                     std::uint64_t seq, std::string resp);
  /// Executes a parsed request on the CURRENT thread, which must be the
  /// coordinator's shard; appends the encoded response payload to `out`.
  void execute(const Request& req, std::string& out);
  /// The admin loop: drains queued join/leave/ring-info jobs on its own
  /// (non-shard) thread — a membership transition stops the world,
  /// which a shard thread cannot do to itself.  One thread, so admin
  /// operations serialize and ring-info reads never race a transition.
  void run_admin();
  void execute_admin(const Request& req, std::string& out);
  void complete(std::size_t shard, std::uint64_t conn_id, std::uint64_t seq,
                std::string payload);
  void release_ready(std::size_t shard, Connection& conn);
  void flush(std::size_t shard, Connection& conn);
  void update_interest(std::size_t shard, Connection& conn);
  void close_connection(std::size_t shard, std::uint64_t conn_id);

  kv::Store& store_;
  ServerConfig config_;
  net::ThreadedTransport* transport_ = nullptr;
  std::vector<std::unique_ptr<Loop>> loops_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> next_conn_shard_{0};
  std::atomic<bool> stopping_{false};  ///< close conns, stop accepting
  std::atomic<bool> halt_{false};      ///< exit the loops (post-quiesce)
  bool started_ = false;

  // Admin plane (guarded by admin_mu_; the thread is joined before the
  // shard loops halt, so its world-stops always find live shards).
  std::thread admin_thread_;
  std::mutex admin_mu_;
  std::condition_variable admin_cv_;
  std::deque<AdminJob> admin_jobs_;
  bool admin_halt_ = false;
};

}  // namespace dvv::server
