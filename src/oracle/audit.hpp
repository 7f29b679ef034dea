// dvv/oracle/audit.hpp
//
// The causality oracle: replays a trace *in lockstep* on a kv::Store
// running the mechanism under test and on a causal-history store
// (exact by §1 of the paper), auditing after every operation.  Both
// run the same facade path (workload::StoreReplayer over kv::Session)
// that dvvd and every client use, and the audit reads each replica's
// siblings through Store::values_at — paused replicas included.
//
// Because every write in a trace carries a globally unique payload, the
// sibling sets of the two stores are comparable as sets of strings:
//
//   * a value the truth store retains but the subject lost
//       -> LOST UPDATE: the subject's clocks wrongly claimed the value
//          was dominated and discarded it (the Fig. 1b disaster; also
//          a pruning failure mode of E8);
//   * a value the subject retains but the truth has obsoleted
//       -> FALSE SIBLING (false concurrency): the subject's clocks could
//          not prove a dominance that actually holds, resurrecting or
//          retaining stale versions (the other pruning failure mode).
//
// Auditing continuously matters: causality anomalies are frequently
// *transient* — a later read-modify-write collapses the siblings in both
// worlds and erases the evidence — so an end-state-only comparison
// under-counts.  The audit therefore runs per touched key after every
// GET/PUT and cluster-wide after every anti-entropy round and at the
// end; anomalous values are accumulated as sets (a value lost once is
// one lost update no matter how many audits see the hole).
//
// A mechanism is *exact* on a trace iff both sets stay empty — the
// property experiments E8/E9 sweep, and what the paper claims for DVV
// ("precisely track causality") with one entry per replica server.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "util/assert.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace dvv::oracle {

struct AuditReport {
  std::uint64_t audits = 0;           ///< audit passes executed
  std::uint64_t keys_checked = 0;     ///< (replica, key) states compared
  std::uint64_t values_checked = 0;   ///< truth-side sibling values seen
  std::set<std::string> lost_values;  ///< truth retained, subject lost
  std::set<std::string> false_values; ///< subject retained, truth obsoleted

  [[nodiscard]] std::uint64_t lost_updates() const noexcept {
    return lost_values.size();
  }
  [[nodiscard]] std::uint64_t false_siblings() const noexcept {
    return false_values.size();
  }
  [[nodiscard]] bool exact() const noexcept {
    return lost_values.empty() && false_values.empty();
  }
};

/// Drives subject and truth stores through the same trace in lockstep
/// and audits continuously.  The two stores must share ring geometry
/// (same servers / replication / vnodes), which mirrored_run guarantees.
class LockstepAuditor {
 public:
  LockstepAuditor(kv::Store& subject, kv::Store& truth,
                  const workload::Trace& trace)
      : subject_(&subject),
        truth_(&truth),
        subject_replay_(subject, trace),
        truth_replay_(truth, trace) {}

  /// Runs the whole trace; returns the accumulated report.
  AuditReport run(const workload::Trace& trace) {
    for (const workload::TraceOp& op : trace.ops) {
      subject_replay_.step(op);
      truth_replay_.step(op);
      if (op.kind == workload::TraceOp::Kind::kAntiEntropy) {
        audit_all_keys();
      } else {
        audit_key(op.key);
      }
    }
    audit_all_keys();
    return report_;
  }

  [[nodiscard]] workload::ReplayStats finish_subject() {
    return subject_replay_.finish();
  }
  [[nodiscard]] workload::ReplayStats finish_truth() { return truth_replay_.finish(); }

 private:
  void audit_key(const kv::Key& key) {
    ++report_.audits;
    for (const kv::ReplicaId r : subject_->preference_list(key)) {
      compare_state(r, key);
    }
  }

  void audit_all_keys() {
    ++report_.audits;
    for (std::size_t s = 0; s < truth_->servers(); ++s) {
      const auto r = static_cast<kv::ReplicaId>(s);
      for (const kv::Key& key : truth_->keys(r)) compare_state(r, key);
    }
  }

  void compare_state(kv::ReplicaId r, const kv::Key& key) {
    ++report_.keys_checked;
    const std::vector<kv::Value> subject_list = subject_->values_at(r, key);
    const std::vector<kv::Value> truth_list = truth_->values_at(r, key);
    const std::set<std::string> subject_values(subject_list.begin(),
                                               subject_list.end());
    const std::set<std::string> truth_values(truth_list.begin(), truth_list.end());
    report_.values_checked += truth_values.size();
    for (const auto& v : truth_values) {
      if (!subject_values.contains(v)) report_.lost_values.insert(v);
    }
    for (const auto& v : subject_values) {
      if (!truth_values.contains(v)) report_.false_values.insert(v);
    }
  }

  kv::Store* subject_;
  kv::Store* truth_;
  workload::StoreReplayer subject_replay_;
  workload::StoreReplayer truth_replay_;
  AuditReport report_;
};

/// Everything a mirrored (subject vs truth) run produces.
struct MirroredRun {
  std::unique_ptr<kv::Store> subject;
  std::unique_ptr<kv::Store> truth;
  workload::ReplayStats subject_stats;
  workload::ReplayStats truth_stats;
  AuditReport report;
};

/// Generates the trace for `spec` and replays it in lockstep, with
/// continuous audits, on make_store(config) — `config.mechanism` and
/// `config.prune_cap` name the subject — and on a causal-history store
/// of the same geometry.
[[nodiscard]] inline MirroredRun mirrored_run(const workload::WorkloadSpec& spec,
                                              const kv::StoreConfig& config) {
  MirroredRun run;
  run.subject = kv::make_store(config);
  DVV_ASSERT_MSG(run.subject != nullptr, "oracle: unknown subject mechanism");
  run.truth = kv::make_store("causal-history", config);
  const workload::Trace trace = workload::generate_trace(spec, config.replication);
  LockstepAuditor auditor(*run.subject, *run.truth, trace);
  run.report = auditor.run(trace);
  run.subject_stats = auditor.finish_subject();
  run.truth_stats = auditor.finish_truth();
  return run;
}

}  // namespace dvv::oracle
