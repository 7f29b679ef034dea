// dvv/workload/replay.hpp
//
// Replays a resolved Trace on a kv::Store and collects the
// measurements the paper's evaluation reports: per-request metadata
// bytes, sibling counts, clock entries, replication traffic, and the
// final storage footprint.
//
// This is the same facade path dvvd and every client use; the
// lockstep oracle (src/oracle) drives two of these replayers — one on
// the store under test, one on the causal-history truth store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "kv/session.hpp"
#include "kv/store.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "workload/trace.hpp"

namespace dvv::workload {

struct ReplayStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t anti_entropy_rounds = 0;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t ticks = 0;           ///< async replay: transport pumps
  std::uint64_t op_timeouts = 0;     ///< async ops that missed their deadline
  std::uint64_t max_in_flight = 0;   ///< concurrent client ops peak

  /// Per-GET reply measurements (what the client downloads every read).
  util::Samples get_metadata_bytes;
  util::Samples get_total_bytes;
  util::Samples get_siblings;
  util::Samples get_clock_entries;

  /// Per-PUT replication traffic.
  util::Samples put_replication_bytes;

  /// Final cluster-wide footprint, filled by finish().
  std::size_t final_keys = 0;
  std::size_t final_siblings = 0;
  std::size_t final_clock_entries = 0;
  std::size_t final_metadata_bytes = 0;
  std::size_t final_total_bytes = 0;
};

/// Replays a trace on a kv::Store through kv::Session, one TraceOp at
/// a time.  Non-template — the mechanism was chosen at store
/// construction — and contexts cross only as opaque CausalTokens.
/// Steppable so the oracle can run a subject store and the
/// causal-history truth store in lockstep and audit *during* the run.
class StoreReplayer {
 public:
  StoreReplayer(kv::Store& store, const Trace& trace)
      : store_(&store),
        hinted_handoff_(trace.hinted_handoff),
        crash_faults_(trace.crash_faults),
        async_(trace.async_quorum),
        read_quorum_(trace.read_quorum),
        write_quorum_(trace.write_quorum),
        deadline_ticks_(trace.deadline_ticks) {
    sessions_.reserve(trace.clients);
    for (std::size_t c = 0; c < trace.clients; ++c) {
      sessions_.emplace_back(kv::client_actor(c), store);
    }
  }

  /// Resolves a preference-list slot to the first ALIVE server at or
  /// after it (wrapping).  Trace generation guarantees at most R-1
  /// simultaneous failures, so some preference member is always alive.
  [[nodiscard]] kv::ReplicaId resolve_alive(const std::vector<kv::ReplicaId>& pref,
                                            std::size_t rank) const {
    for (std::size_t i = 0; i < pref.size(); ++i) {
      const kv::ReplicaId candidate = pref[(rank + i) % pref.size()];
      if (store_->alive(candidate)) return candidate;
    }
    DVV_ASSERT_MSG(false, "no alive replica in preference list");
    return pref[0];
  }

  /// Applies one trace operation.
  void step(const TraceOp& op) {
    switch (op.kind) {
      case TraceOp::Kind::kGet: {
        const auto pref = store_->preference_list(op.key);
        const kv::ReplicaId source = resolve_alive(pref, op.rank);
        ++stats_.gets;
        if (async_) {
          // In-flight coordinated read: the session's token refreshes
          // when the quorum completes (harvest_completions), not now —
          // a put issued meanwhile genuinely races this read.
          kv::ReadOptions opts;
          opts.deadline_ticks = deadline_ticks_;
          const std::uint64_t id =
              store_->begin_read_at(op.key, source, read_quorum_, opts);
          pending_reads_[id] = op.client;
          note_in_flight();
          break;
        }
        (void)sessions_[op.client].get(op.key, source);
        const kv::StoreKeyStats measured = store_->key_stats(source, op.key);
        stats_.get_metadata_bytes.add(static_cast<double>(measured.metadata_bytes));
        stats_.get_total_bytes.add(static_cast<double>(measured.total_bytes));
        stats_.get_siblings.add(static_cast<double>(measured.siblings));
        stats_.get_clock_entries.add(static_cast<double>(measured.clock_entries));
        break;
      }
      case TraceOp::Kind::kPut: {
        const auto pref = store_->preference_list(op.key);
        const kv::ReplicaId coordinator = resolve_alive(pref, op.rank);
        if (op.blind) sessions_[op.client].forget(op.key);
        ++stats_.puts;
        // Sloppy-quorum puts stay synchronous even in async replays:
        // hint parking is coordinator-side scatter, not a client wait.
        if (async_ && !hinted_handoff_) {
          std::vector<kv::ReplicaId> replicate_to;
          replicate_to.reserve(op.replicate_ranks.size());
          for (const std::size_t r : op.replicate_ranks) {
            replicate_to.push_back(pref.at(r));
          }
          kv::WriteOptions opts;
          opts.write_quorum = write_quorum_;
          opts.deadline_ticks = deadline_ticks_;
          const kv::StoreWriteBegin begun = store_->begin_write(
              op.key, coordinator, kv::client_actor(op.client),
              sessions_[op.client].token_for(op.key), op.value, replicate_to,
              opts);
          // Sessions only ferry tokens this store minted; a rejection
          // here would be a replayer bug, not trace weather.
          DVV_ASSERT_MSG(begun.ok(), "StoreReplayer: own token rejected");
          stats_.put_replication_bytes.add(static_cast<double>(
              store_->peek_write_receipt(begun.id).replication_bytes));
          pending_writes_.push_back(begun.id);
          note_in_flight();
          break;
        }
        kv::StorePutResult result;
        if (hinted_handoff_) {
          result =
              sessions_[op.client].put_with_handoff(op.key, coordinator, op.value);
        } else {
          std::vector<kv::ReplicaId> replicate_to;
          replicate_to.reserve(op.replicate_ranks.size());
          for (const std::size_t r : op.replicate_ranks) {
            replicate_to.push_back(pref.at(r));
          }
          result = sessions_[op.client].put_via(op.key, coordinator, op.value,
                                                replicate_to);
        }
        DVV_ASSERT_MSG(result.status != kv::StoreStatus::kBadToken,
                       "StoreReplayer: own token rejected");
        stats_.put_replication_bytes.add(
            static_cast<double>(result.receipt.replication_bytes));
        break;
      }
      case TraceOp::Kind::kAntiEntropy: {
        (void)store_->anti_entropy_digest();
        ++stats_.anti_entropy_rounds;
        break;
      }
      case TraceOp::Kind::kFail: {
        const auto server = static_cast<kv::ReplicaId>(op.server);
        if (crash_faults_) {
          store_->crash(server);  // volatile state gone; log survives
        } else {
          store_->set_alive(server, false);  // pause, memory intact
        }
        ++stats_.failures;
        break;
      }
      case TraceOp::Kind::kRecover: {
        const auto server = static_cast<kv::ReplicaId>(op.server);
        if (crash_faults_) {
          (void)store_->recover(server);  // storage replay
        } else {
          store_->set_alive(server, true);
        }
        if (hinted_handoff_) store_->deliver_hints();
        ++stats_.recoveries;
        break;
      }
      case TraceOp::Kind::kPartition: {
        std::vector<std::vector<kv::ReplicaId>> groups;
        groups.reserve(op.groups.size());
        for (const auto& group : op.groups) {
          groups.emplace_back(group.begin(), group.end());
        }
        store_->partition(groups, "trace");
        ++stats_.partitions;
        break;
      }
      case TraceOp::Kind::kHeal: {
        store_->heal();
        ++stats_.heals;
        break;
      }
      case TraceOp::Kind::kTick: {
        // One pump of network time: queued scatter/replies/fan-out land,
        // deadlines advance — in-flight ops complete (or expire) HERE,
        // interleaved with later operations.
        store_->pump();
        ++stats_.ticks;
        break;
      }
    }
    if (async_) harvest_completions();
  }

  /// Records the final footprint and returns the accumulated stats.
  /// Drains the store's transport first, so a queued (manually pumped)
  /// transport cannot leave replicated state unaccounted, and
  /// force-completes any still-pending async operation (a trace may end
  /// with ops in flight; their late replies are the engine's problem).
  ReplayStats finish() {
    (void)store_->pump_all();
    if (async_) {
      for (const auto& [id, client] : pending_reads_) {
        (void)store_->finalize_request(id);
      }
      for (const std::uint64_t id : pending_writes_) {
        (void)store_->finalize_request(id);
      }
      harvest_completions();
      DVV_ASSERT(pending_reads_.empty() && pending_writes_.empty());
    }
    const kv::Footprint fp = store_->footprint();
    stats_.final_keys = fp.keys;
    stats_.final_siblings = fp.siblings;
    stats_.final_clock_entries = fp.clock_entries;
    stats_.final_metadata_bytes = fp.metadata_bytes;
    stats_.final_total_bytes = fp.total_bytes;
    return stats_;
  }

  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }

 private:
  void note_in_flight() {
    stats_.max_in_flight =
        std::max(stats_.max_in_flight,
                 static_cast<std::uint64_t>(store_->requests_in_flight()));
  }

  /// Harvests every async operation that reached a terminal outcome:
  /// completed reads hand their opaque token to the issuing session
  /// (unavailable ones must not — the token-clobber rule) and record
  /// the reply measurements; completed writes just retire.
  void harvest_completions() {
    for (const std::uint64_t id : store_->take_completed_requests()) {
      if (const auto it = pending_reads_.find(id); it != pending_reads_.end()) {
        const std::size_t client = it->second;
        pending_reads_.erase(it);
        const kv::StoreReadHarvest harvest = store_->take_read_result(id);
        if (harvest.outcome != kv::CoordOutcome::kQuorum) ++stats_.op_timeouts;
        if (!harvest.result.unavailable()) {
          sessions_[client].remember(harvest.key, harvest.result.token);
        }
        stats_.get_metadata_bytes.add(static_cast<double>(harvest.metadata_bytes));
        stats_.get_total_bytes.add(static_cast<double>(harvest.state_bytes));
        stats_.get_siblings.add(static_cast<double>(harvest.siblings));
        stats_.get_clock_entries.add(static_cast<double>(harvest.clock_entries));
      } else if (std::erase(pending_writes_, id) > 0) {
        const kv::PutReceipt receipt = store_->take_write_receipt(id);
        if (receipt.outcome != kv::CoordOutcome::kQuorum) ++stats_.op_timeouts;
      }
      // Ids in neither list belong to synchronous calls that already
      // harvested themselves.
    }
  }

  kv::Store* store_;
  bool hinted_handoff_;
  bool crash_faults_;
  bool async_ = false;
  std::size_t read_quorum_ = 1;
  std::size_t write_quorum_ = 1;
  std::size_t deadline_ticks_ = 16;
  std::vector<kv::Session> sessions_;
  std::map<std::uint64_t, std::size_t> pending_reads_;  ///< id -> client
  std::vector<std::uint64_t> pending_writes_;
  ReplayStats stats_;
};

/// One-shot replay of a whole trace.
inline ReplayStats replay(kv::Store& store, const Trace& trace) {
  StoreReplayer replayer(store, trace);
  for (const TraceOp& op : trace.ops) replayer.step(op);
  return replayer.finish();
}

}  // namespace dvv::workload
