// dvv/kv/client.hpp
//
// A client session against the cluster: the read-modify-write loop from
// the paper's storage workflow.  The session remembers, per key, the
// causal context of its most recent GET and sends it with the next PUT —
// exactly the client-side behaviour whose causality the mechanisms must
// track.  A session that PUTs with a *stale* context (an old GET, or no
// GET at all — a blind write) is how concurrent versions arise.
#pragma once

#include <optional>
#include <map>
#include <utility>

#include "kv/cluster.hpp"
#include "kv/types.hpp"

namespace dvv::kv {

template <CausalityMechanism M>
class ClientSession {
 public:
  using Context = typename M::Context;

  ClientSession(ClientId id, Cluster<M>& cluster) : id_(id), cluster_(&cluster) {}

  [[nodiscard]] ClientId id() const noexcept { return id_; }

  /// GET through `from` (defaults to the key's coordinator); remembers
  /// the returned context for the next put().  When no coordinator is
  /// alive — or the explicitly-chosen source is down — the result comes
  /// back `unavailable` and the remembered context is left untouched:
  /// an error reply, not a crash, and never a context rollback (a
  /// clobbered context would turn the session's next put into a blind
  /// write).
  typename Cluster<M>::GetResult get(const Key& key,
                                     std::optional<ReplicaId> from = std::nullopt) {
    const std::optional<ReplicaId> source =
        from.has_value() ? from : cluster_->default_coordinator(key);
    if (!source.has_value() || !cluster_->replica(*source).alive()) {
      typename Cluster<M>::GetResult out;
      out.unavailable = true;
      return out;
    }
    auto result = cluster_->get(key, *source);
    contexts_[key] = result.context;
    return result;
  }

  /// PUT with the remembered context (empty if this session never read
  /// the key — a blind write).  Returns the cluster receipt.
  typename Cluster<M>::PutReceipt put(const Key& key, Value value) {
    const Context ctx = context_for(key);
    return cluster_->put(key, id_, ctx, std::move(value));
  }

  /// PUT with explicit routing (coordinator + replication fan-out),
  /// still using the remembered context.
  typename Cluster<M>::PutReceipt put_via(const Key& key, ReplicaId coordinator,
                                          Value value,
                                          const std::vector<ReplicaId>& replicate_to) {
    const Context ctx = context_for(key);
    return cluster_->put(key, coordinator, id_, ctx, std::move(value), replicate_to);
  }

  /// PUT through the sloppy quorum: dead preference members get hints
  /// parked on fallback servers (Cluster::put_with_handoff).
  typename Cluster<M>::PutReceipt put_with_handoff(const Key& key,
                                                   ReplicaId coordinator,
                                                   Value value) {
    const Context ctx = context_for(key);
    return cluster_->put_with_handoff(key, coordinator, id_, ctx, std::move(value));
  }

  /// Read-modify-write: GET, apply `f` to the sibling values, PUT the
  /// result.  This is the canonical correct client loop: because the PUT
  /// carries the GET's context, it overwrites exactly what was read and
  /// nothing else.  When the GET comes back unavailable the RMW must
  /// NOT write: the read it would be conditioned on never happened, so
  /// proceeding would blind-write f({}) under the stale remembered
  /// context (tests/cluster_test.cpp: RmwOnUnavailableReadDoesNotWrite).
  template <typename F>
  typename Cluster<M>::PutReceipt rmw(const Key& key, F&& f) {
    auto r = get(key);
    if (r.unavailable) {
      typename Cluster<M>::PutReceipt receipt;
      receipt.unavailable = true;
      receipt.outcome = CoordOutcome::kUnavailable;
      return receipt;
    }
    return put(key, std::forward<F>(f)(r.values));
  }

  /// Forgets the remembered context for `key` (the next put is blind).
  void forget(const Key& key) { contexts_.erase(key); }

  [[nodiscard]] Context context_for(const Key& key) const {
    auto it = contexts_.find(key);
    return it == contexts_.end() ? Context{} : it->second;
  }

 private:
  ClientId id_;
  Cluster<M>* cluster_;
  std::map<Key, Context> contexts_;  // ordered: see dvv_lint unordered-container
};

}  // namespace dvv::kv
