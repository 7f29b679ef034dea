// dvv/kv/coordinator.hpp
//
// Per-request quorum coordination: the client read/write path as
// explicit state machines over the transport (src/net).
//
// Before this subsystem existed, Cluster::get_quorum and Cluster::put
// were synchronous loops over `replicas_.at(...)` — a client operation
// could never be *in flight* across the partitions, reorderings and
// crashes the transport and storage layers make real.  Now a GET/PUT is
// a REQUEST: the coordinator replica scatters typed messages
// (net::CoordReadReqMsg / CoordWriteReqMsg), peers answer
// (CoordReadRespMsg / CoordWriteRespMsg), and this engine tracks each
// request from kScatter to a terminal outcome:
//
//     start ──▶ scatter ──▶ collecting replies ──▶ kQuorum   (R/W distinct
//                │                 │                          replies won)
//                │                 ├────────────▶ kTimeout   (deadline hit
//                │                 │                          with partial
//                │                 │                          replies)
//                └─────────────────┴────────────▶ kUnavailable (nobody
//                                                              answered)
//
// Completion is PARTIAL-QUORUM: the first R (read) / W (write) distinct
// replies win; replies still in flight keep arriving and are dropped.
// Reply hygiene is the heart of the machine:
//
//   * a DUPLICATE reply (the transport's dup fault redelivers, or a
//     retried scatter double-answers) counts once toward the quorum —
//     the responder set is a set;
//   * a LATE reply (arriving after the request completed or timed out)
//     is dropped without touching the finished state;
//   * a STALE reply (arriving after its request slot was harvested and
//     REUSED by a newer request) is recognized by the generation half
//     of the request id and dropped — a reused slot can never be
//     corrupted by the previous tenant's stragglers.
//
// Request ids encode (slot, generation): slots are recycled through a
// free list (bounded memory under millions of requests) and every reuse
// bumps the generation, so an id is valid for exactly one request ever.
// The RequestTable is mechanism-independent (coordinator.cpp); the
// templated engine below adds the payload half — merged read state,
// per-responder digests for read repair, and the receipts.
//
// The engine holds no transport or replica pointers: the owning Cluster
// routes messages and feeds replies in, which keeps this file pure
// bookkeeping (trivially movable with the cluster) and keeps every
// side effect — scatter sends, read-repair sends, local applies — in
// one place (cluster.hpp).  Deadlines are tick-based: Cluster::pump()
// advances one coordination tick per transport tick.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kv/mechanism.hpp"
#include "kv/types.hpp"
#include "obs/metrics.hpp"
#include "sync/key_digest.hpp"
#include "util/assert.hpp"

namespace dvv::kv {

/// Terminal state of a coordinated request.
enum class CoordOutcome : std::uint8_t {
  kPending = 0,      ///< still collecting replies
  kQuorum = 1,       ///< R/W distinct replies arrived in time
  kTimeout = 2,      ///< deadline (or forced finalize) with partial replies
  kUnavailable = 3,  ///< nobody answered at all
};

[[nodiscard]] constexpr const char* to_string(CoordOutcome o) noexcept {
  switch (o) {
    case CoordOutcome::kPending: return "pending";
    case CoordOutcome::kQuorum: return "quorum";
    case CoordOutcome::kTimeout: return "timeout";
    case CoordOutcome::kUnavailable: return "unavailable";
  }
  return "?";
}

/// Engine observability: request and reply-hygiene accounting.
struct CoordStats {
  std::size_t reads_started = 0;
  std::size_t writes_started = 0;
  std::size_t quorum_completions = 0;
  std::size_t timeouts = 0;          ///< deadline AND forced finalizes
  std::size_t unavailable = 0;
  std::size_t duplicate_replies_dropped = 0;  ///< same responder twice
  /// Reply for a request that already reached a terminal outcome but is
  /// not yet harvested — dropped without touching the finished state.
  std::size_t late_replies_dropped = 0;
  /// Reply for a request id whose slot was already harvested (retired,
  /// possibly reacquired by a newer request): the generation half of
  /// the id no longer matches, so the straggler cannot touch the slot's
  /// new tenant.
  std::size_t stale_replies_dropped = 0;
};

/// Per-read tuning knobs (Cluster::begin_read / get_quorum).  A read
/// asks exactly `quorum` replicas.
struct ReadOptions {
  /// Scatter the merged state back to responders whose reply digest
  /// differs once the read completes (Dynamo read repair).  Off by
  /// default: the shim must not write where the old code did not.
  bool read_repair = false;
  /// Coordination ticks until the request times out with whatever
  /// replies arrived (one tick per Cluster::pump()).
  std::uint64_t deadline_ticks = 32;
};

/// Per-write tuning knobs (Cluster::begin_write).
struct WriteOptions {
  /// Distinct acks (the coordinator's local apply counts as the first)
  /// that complete the write.  0 means "all": the coordinator plus
  /// every fan-out message actually sent.
  std::size_t write_quorum = 0;
  std::uint64_t deadline_ticks = 32;
};

/// What a coordinated PUT reports back.  Send-time fields are filled by
/// the cluster's scatter; ack fields by the engine as CoordWriteRespMsg
/// replies land.  With the inline transport acks arrive before the
/// synchronous shims return; with a queued transport the receipt counts
/// sends, and acks observed by harvest time.
struct PutReceipt {
  ReplicaId coordinator = 0;
  bool unavailable = false;       ///< no alive replica could coordinate
  std::size_t targets = 0;        ///< intended non-coordinator fan-out width
  std::size_t replicated_to = 0;  ///< fan-out messages sent to alive replicas
                                  ///  (delivery is the transport's business)
  std::size_t hinted = 0;         ///< hints parked for dead preference members
  std::size_t unparked = 0;       ///< dead members NO fallback could cover —
                                  ///  the write is below its intended
                                  ///  durability and only repair can fix it
  /// Neither a direct copy nor a parked hint reached some intended
  /// preference-list target: the fan-out is PARTIAL and the caller must
  /// not mistake the receipt for full replication
  /// (tests/cluster_test.cpp: PlainPutBelowFullFanoutReportsDegraded).
  bool degraded = false;
  std::size_t replication_bytes = 0;  ///< wire bytes of every message sent
  /// Exactly which replicas acknowledged the write, in arrival order;
  /// the coordinator's local apply is always first.  Duplicate acks
  /// count once; late acks are dropped by the engine.
  std::vector<ReplicaId> acked_by;
  CoordOutcome outcome = CoordOutcome::kPending;

  [[nodiscard]] std::size_t acks() const noexcept { return acked_by.size(); }
};

/// Slot + generation request-id table (mechanism-independent half of
/// the engine; implementation in coordinator.cpp).  An id is
/// `generation << kSlotBits | slot`: slots recycle through a free list
/// and every reuse bumps the slot's generation, so a late message
/// addressed to a previous tenant of the slot can never resolve to the
/// current one.
class RequestTable {
 public:
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  [[nodiscard]] static std::size_t slot_of(std::uint64_t id) noexcept {
    return static_cast<std::size_t>(id & kSlotMask);
  }
  [[nodiscard]] static std::uint64_t generation_of(std::uint64_t id) noexcept {
    return id >> kSlotBits;
  }

  /// Opens a new request; returns its id (the slot may be recycled, the
  /// id never is).
  [[nodiscard]] std::uint64_t acquire();

  /// True while `id` names the live tenant of its slot (open, matching
  /// generation).
  [[nodiscard]] bool is_current(std::uint64_t id) const noexcept;

  /// True when `id`'s slot has been reacquired by a NEWER request —
  /// the distinction between a merely-late reply and one aimed at a
  /// reused slot.
  [[nodiscard]] bool is_stale(std::uint64_t id) const noexcept;

  /// Closes `id` and recycles its slot.  Asserts it is current.
  void retire(std::uint64_t id);

  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }

 private:
  struct Slot {
    std::uint64_t generation = 0;
    bool open = false;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t open_ = 0;
};

/// The per-request state machines for one cluster's client path.
/// M is the causality mechanism (kv/mechanism.hpp); the engine only
/// ever touches it to merge read replies.
template <CausalityMechanism M>
class QuorumCoordinator {
 public:
  using Stored = typename M::Stored;
  using Context = typename M::Context;

  /// Harvested result of a coordinated read.
  struct ReadReceipt {
    std::uint64_t id = 0;
    Key key;
    ReplicaId coordinator = 0;
    CoordOutcome outcome = CoordOutcome::kPending;
    std::size_t quorum = 0;
    std::size_t asked = 0;  ///< replicas asked (local read included)
    bool found = false;
    /// Exactly which replicas answered, in arrival order (duplicates
    /// counted once, late/stale replies never).
    std::vector<ReplicaId> responders;
    /// Mechanism-merged state over every counted reply.
    Stored merged;
  };

  // ---- lifecycle ---------------------------------------------------------

  std::uint64_t start_read(Key key, ReplicaId coordinator, std::size_t quorum,
                           const ReadOptions& opts) {
    DVV_ASSERT(quorum >= 1);
    const std::uint64_t id = table_.acquire();
    Request& req = slot(id);
    req.reset();
    req.id = id;
    req.is_read = true;
    req.read.id = id;
    req.read.key = std::move(key);
    req.read.coordinator = coordinator;
    req.read.quorum = quorum;
    req.read_repair = opts.read_repair;
    req.deadline = tick_ + opts.deadline_ticks;
    req.start_tick = tick_;
    ++stats_.reads_started;
    obs::coord_metrics().reads_started.inc();
    // The request id (slot|generation) doubles as the trace id of every
    // span event this request emits into the flight recorder.
    obs::flight().record("coord", "read_start", id, coordinator, quorum);
    return id;
  }

  std::uint64_t start_write(PutReceipt base, const WriteOptions& opts) {
    const std::uint64_t id = table_.acquire();
    Request& req = slot(id);
    req.reset();
    req.id = id;
    req.is_read = false;
    req.write = std::move(base);
    req.requested_write_quorum = opts.write_quorum;
    req.deadline = tick_ + opts.deadline_ticks;
    req.start_tick = tick_;
    ++stats_.writes_started;
    obs::coord_metrics().writes_started.inc();
    obs::flight().record("coord", "write_start", id, req.write.coordinator,
                         opts.write_quorum);
    return id;
  }

  /// Records one scatter message sent for a read (receipt honesty:
  /// `asked` counts the coordinator's local read plus real sends).
  void note_read_asked(std::uint64_t id) {
    DVV_ASSERT(table_.is_current(id));
    ++slot(id).read.asked;
    obs::flight().record("coord", "read_scatter", id, slot(id).read.asked);
  }

  /// Send-time receipt fields of an open write (the cluster's scatter
  /// loop fills replicated_to / hinted / unparked / bytes through this).
  [[nodiscard]] PutReceipt& write_receipt(std::uint64_t id) {
    DVV_ASSERT(table_.is_current(id));
    Request& req = slot(id);
    DVV_ASSERT(!req.is_read);
    return req.write;
  }

  /// Pins the write's completion bar once the scatter width is known:
  /// effective W = min(requested, coordinator + messages actually
  /// sent) — a W the fan-out cannot reach would otherwise hang the
  /// request until its deadline for no benefit.  May complete the
  /// request on the spot (W already satisfied by inline acks, or W=1
  /// with an empty fan-out); returns true when it did.
  bool seal_write_quorum(std::uint64_t id) {
    DVV_ASSERT(table_.is_current(id));
    Request& req = slot(id);
    DVV_ASSERT(!req.is_read && req.write_quorum == 0);
    const std::size_t reachable = 1 + req.write.replicated_to;
    req.write_quorum = req.requested_write_quorum == 0
                           ? reachable
                           : std::min(req.requested_write_quorum, reachable);
    if (req.requested_write_quorum > reachable) req.write.degraded = true;
    return maybe_complete_write(req);
  }

  // ---- replies -----------------------------------------------------------

  /// One read reply (`state` null when the responder does not hold the
  /// key).  The coordinator's own local read goes through here too.
  /// Returns true when this reply completed the request.
  bool on_read_reply(std::uint64_t id, ReplicaId from, const Stored* state,
                     const M& mechanism) {
    Request* req = reply_target(id, /*want_read=*/true);
    if (req == nullptr) return false;
    if (already_counted(req->read.responders, from)) return false;
    obs::flight().record("coord", "read_reply", id, from);
    req->read.responders.push_back(from);
    req->reply_digests.emplace_back(
        from, state == nullptr ? sync::kMissing : sync::state_digest(*state));
    if (state != nullptr) {
      mechanism.sync(req->read.merged, *state);
      req->read.found = true;
    }
    if (req->read.responders.size() >= req->read.quorum) {
      complete(*req, CoordOutcome::kQuorum);
      return true;
    }
    return false;
  }

  /// One write ack.  Returns true when it completed the request.
  bool on_write_ack(std::uint64_t id, ReplicaId from) {
    Request* req = reply_target(id, /*want_read=*/false);
    if (req == nullptr) return false;
    if (already_counted(req->write.acked_by, from)) return false;
    obs::flight().record("coord", "write_ack", id, from);
    req->write.acked_by.push_back(from);
    return maybe_complete_write(*req);
  }

  // ---- time and forced completion ----------------------------------------

  /// Advances one coordination tick; requests whose deadline passed
  /// complete as kTimeout (kUnavailable when nobody answered).  Returns
  /// the newly terminal ids.
  std::vector<std::uint64_t> tick() {
    ++tick_;
    std::vector<std::uint64_t> expired;
    for (std::size_t s = 0; s < requests_.size(); ++s) {
      Request& req = requests_[s];
      // A retired or never-used slot holds a default Request whose id
      // (0) aliases slot 0's first tenant — the slot check keeps such
      // junk from expiring someone else's request.
      if (RequestTable::slot_of(req.id) != s) continue;
      if (!table_.is_current(req.id) || req.outcome() != CoordOutcome::kPending) {
        continue;
      }
      if (tick_ >= req.deadline) {
        expire(req);
        expired.push_back(req.id);
      }
    }
    return expired;
  }

  /// Force-completes a still-pending request NOW (the synchronous shims
  /// call this at their return boundary: whatever has not answered by
  /// then is, for this caller, timed out).  Returns true if the call
  /// performed the completion.
  bool finalize(std::uint64_t id) {
    if (!table_.is_current(id)) return false;
    Request& req = slot(id);
    if (req.outcome() != CoordOutcome::kPending) return false;
    expire(req);
    return true;
  }

  // ---- harvest -----------------------------------------------------------

  [[nodiscard]] bool is_open(std::uint64_t id) const {
    return table_.is_current(id);
  }

  [[nodiscard]] bool is_terminal(std::uint64_t id) const {
    return table_.is_current(id) &&
           requests_[RequestTable::slot_of(id)].outcome() != CoordOutcome::kPending;
  }

  /// Terminal requests not yet harvested, oldest first (completion
  /// order).  Harvesting (take_read / take_write) removes the id.
  [[nodiscard]] std::vector<std::uint64_t> take_completed() {
    return std::exchange(completed_, {});
  }

  /// Per-responder reply digests of a terminal read (the read-repair
  /// scatter diffs these against the merged digest).
  [[nodiscard]] const std::vector<std::pair<ReplicaId, sync::Digest>>&
  reply_digests(std::uint64_t id) const {
    DVV_ASSERT(table_.is_current(id));
    return requests_[RequestTable::slot_of(id)].reply_digests;
  }

  [[nodiscard]] bool read_repair_requested(std::uint64_t id) const {
    DVV_ASSERT(table_.is_current(id));
    return requests_[RequestTable::slot_of(id)].read_repair;
  }

  /// Terminal read's receipt without harvesting it (the read-repair
  /// scatter inspects the merged state before the caller harvests).
  [[nodiscard]] const ReadReceipt& peek_read(std::uint64_t id) const {
    DVV_ASSERT(table_.is_current(id));
    const Request& req = requests_[RequestTable::slot_of(id)];
    DVV_ASSERT(req.is_read);
    return req.read;
  }

  /// Live write receipt without harvesting it (the simulator meters
  /// fan-out legs from the send-time fields while acks are in flight).
  [[nodiscard]] const PutReceipt& peek_write(std::uint64_t id) const {
    DVV_ASSERT(table_.is_current(id));
    const Request& req = requests_[RequestTable::slot_of(id)];
    DVV_ASSERT(!req.is_read);
    return req.write;
  }

  /// Harvests a terminal read and retires its slot (the id is dead
  /// forever; the slot recycles under a new generation).
  [[nodiscard]] ReadReceipt take_read(std::uint64_t id) {
    Request& req = harvest_target(id, /*want_read=*/true);
    ReadReceipt out = std::move(req.read);
    retire(id);
    return out;
  }

  [[nodiscard]] PutReceipt take_write(std::uint64_t id) {
    Request& req = harvest_target(id, /*want_read=*/false);
    PutReceipt out = std::move(req.write);
    retire(id);
    return out;
  }

  [[nodiscard]] const CoordStats& stats() const noexcept { return stats_; }

  /// Requests open (pending or terminal-unharvested).
  [[nodiscard]] std::size_t open_requests() const noexcept {
    return table_.open_count();
  }

  [[nodiscard]] std::uint64_t now() const noexcept { return tick_; }

 private:
  struct Request {
    std::uint64_t id = 0;
    bool is_read = true;
    bool read_repair = false;
    std::uint64_t deadline = 0;
    std::uint64_t start_tick = 0;  ///< coordination tick at start_*

    std::size_t requested_write_quorum = 0;
    std::size_t write_quorum = 0;  ///< sealed bar; 0 = scatter not sealed yet
    ReadReceipt read;
    PutReceipt write;
    std::vector<std::pair<ReplicaId, sync::Digest>> reply_digests;

    [[nodiscard]] CoordOutcome outcome() const noexcept {
      return is_read ? read.outcome : write.outcome;
    }
    void set_outcome(CoordOutcome o) noexcept {
      (is_read ? read.outcome : write.outcome) = o;
    }

    /// Clears the slot for its next tenant, RETAINING container
    /// capacity: the request path recycles slots millions of times and
    /// must not churn the allocator.  (Harvest moves the receipt's
    /// buffers out to the caller; whatever stays behind is reused.)
    void reset() noexcept {
      id = 0;
      is_read = true;
      read_repair = false;
      deadline = 0;
      start_tick = 0;
      requested_write_quorum = 0;
      write_quorum = 0;
      read.id = 0;
      read.key.clear();
      read.coordinator = 0;
      read.outcome = CoordOutcome::kPending;
      read.quorum = 0;
      read.asked = 0;
      read.found = false;
      read.responders.clear();
      read.merged = Stored{};
      write.coordinator = 0;
      write.unavailable = false;
      write.targets = 0;
      write.replicated_to = 0;
      write.hinted = 0;
      write.unparked = 0;
      write.degraded = false;
      write.replication_bytes = 0;
      write.acked_by.clear();
      write.outcome = CoordOutcome::kPending;
      reply_digests.clear();
    }
  };

  Request& slot(std::uint64_t id) {
    const std::size_t s = RequestTable::slot_of(id);
    if (s >= requests_.size()) requests_.resize(s + 1);
    return requests_[s];
  }

  /// Resolves a reply's target request, applying the hygiene rules:
  /// stale generation, late arrival, and read/write kind confusion all
  /// drop the reply (counted) and return null.
  Request* reply_target(std::uint64_t id, bool want_read) {
    if (!table_.is_current(id)) {
      if (table_.is_stale(id)) {
        ++stats_.stale_replies_dropped;
        obs::coord_metrics().replies_stale_dropped.inc();
        obs::flight().record("coord", "reply_stale_dropped", id);
      } else {
        ++stats_.late_replies_dropped;
        obs::coord_metrics().replies_late_dropped.inc();
        obs::flight().record("coord", "reply_late_dropped", id);
      }
      return nullptr;
    }
    Request& req = slot(id);
    // A read reply cannot land on a write request (or vice versa): the
    // id was recycled across kinds — generation hygiene catches reuse,
    // this catches a corrupted id.
    DVV_ASSERT_MSG(req.is_read == want_read, "coord: reply kind mismatch");
    if (req.outcome() != CoordOutcome::kPending) {
      ++stats_.late_replies_dropped;  // finished state stays untouched
      obs::coord_metrics().replies_late_dropped.inc();
      obs::flight().record("coord", "reply_late_dropped", id);
      return nullptr;
    }
    return &req;
  }

  Request& harvest_target(std::uint64_t id, bool want_read) {
    DVV_ASSERT_MSG(table_.is_current(id), "coord: harvesting a dead request id");
    Request& req = slot(id);
    DVV_ASSERT(req.is_read == want_read);
    DVV_ASSERT_MSG(req.outcome() != CoordOutcome::kPending,
                   "coord: harvesting a pending request (finalize first)");
    return req;
  }

  static bool already_counted_impl(const std::vector<ReplicaId>& seen,
                                   ReplicaId from) noexcept {
    for (const ReplicaId r : seen) {
      if (r == from) return true;
    }
    return false;
  }

  bool already_counted(const std::vector<ReplicaId>& seen, ReplicaId from) {
    if (!already_counted_impl(seen, from)) return false;
    ++stats_.duplicate_replies_dropped;  // a duplicate counts once
    obs::coord_metrics().replies_duplicate_dropped.inc();
    obs::flight().record("coord", "reply_duplicate_dropped", 0, from);
    return true;
  }

  bool maybe_complete_write(Request& req) {
    if (req.write_quorum == 0) return false;  // scatter not sealed yet
    if (req.write.acked_by.size() < req.write_quorum) return false;
    complete(req, CoordOutcome::kQuorum);
    return true;
  }

  void complete(Request& req, CoordOutcome outcome) {
    DVV_ASSERT(req.outcome() == CoordOutcome::kPending);
    req.set_outcome(outcome);
    obs::CoordMetrics& m = obs::coord_metrics();
    switch (outcome) {
      case CoordOutcome::kQuorum:
        ++stats_.quorum_completions;
        m.requests_quorum.inc();
        break;
      case CoordOutcome::kTimeout:
        ++stats_.timeouts;
        m.requests_timeout.inc();
        break;
      case CoordOutcome::kUnavailable:
        ++stats_.unavailable;
        m.requests_unavailable.inc();
        break;
      case CoordOutcome::kPending: break;
    }
    m.latency_ticks.record(tick_ - req.start_tick);
    obs::flight().record("coord", "complete", req.id,
                         static_cast<std::uint64_t>(outcome),
                         tick_ - req.start_tick);
    completed_.push_back(req.id);
  }

  void expire(Request& req) {
    obs::flight().record("coord", "deadline_expired", req.id, tick_);
    const bool answered = req.is_read ? !req.read.responders.empty()
                                      : !req.write.acked_by.empty();
    complete(req, answered ? CoordOutcome::kTimeout : CoordOutcome::kUnavailable);
  }

  void retire(std::uint64_t id) {
    requests_[RequestTable::slot_of(id)].reset();
    std::erase(completed_, id);
    table_.retire(id);
  }

  RequestTable table_;
  std::vector<Request> requests_;       ///< indexed by slot
  std::vector<std::uint64_t> completed_;  ///< terminal, unharvested, in order
  CoordStats stats_;
  std::uint64_t tick_ = 0;
};

}  // namespace dvv::kv
