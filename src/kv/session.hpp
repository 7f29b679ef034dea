// dvv/kv/session.hpp
//
// kv::Session — the client side of the paper's storage workflow against
// the type-erased facade: the session remembers, per key, the OPAQUE
// token of its most recent GET and returns it with the next PUT.  It is
// the non-template rework of ClientSession<M> (kv/client.hpp): same
// read-modify-write loop, but the session can no longer see, forge or
// cross-wire a causal context — it only ferries tokens, exactly like a
// Riak client ferrying X-Riak-Vclock headers.
//
// Context-clobber rule (same as ClientSession, now covering a third
// case): an UNAVAILABLE read, an UNAVAILABLE write and a kBadToken
// rejection all leave the remembered token untouched — any of them
// overwriting it would turn the session's next PUT into a blind write.
#pragma once

#include <optional>
#include <map>
#include <utility>

#include "kv/store.hpp"
#include "kv/token.hpp"
#include "kv/types.hpp"

namespace dvv::kv {

class Session {
 public:
  Session(ClientId id, Store& store) : id_(id), store_(&store) {}

  [[nodiscard]] ClientId id() const noexcept { return id_; }

  /// GET through `from` (defaults to the key's coordinator); remembers
  /// the returned token for the next put().  An unavailable result
  /// comes back as an error reply with the remembered token untouched.
  StoreGetResult get(const Key& key,
                     std::optional<ReplicaId> from = std::nullopt) {
    StoreGetResult result = store_->get(key, from);
    if (result.ok()) tokens_[key] = result.token;
    return result;
  }

  /// PUT with the remembered token (empty if this session never read
  /// the key — a blind write).
  StorePutResult put(const Key& key, Value value) {
    return store_->put(key, id_, token_for(key), std::move(value));
  }

  /// PUT with explicit routing (coordinator + replication fan-out),
  /// still using the remembered token.
  StorePutResult put_via(const Key& key, ReplicaId coordinator, Value value,
                         const std::vector<ReplicaId>& replicate_to) {
    return store_->put_at(key, coordinator, id_, token_for(key),
                          std::move(value), replicate_to);
  }

  /// PUT through the sloppy quorum (hints parked for dead members).
  StorePutResult put_with_handoff(const Key& key, ReplicaId coordinator,
                                  Value value) {
    return store_->put_with_handoff(key, coordinator, id_, token_for(key),
                                    std::move(value));
  }

  /// Read-modify-write: GET, apply `f` to the sibling values, PUT the
  /// result.  When the GET comes back unavailable the RMW must NOT
  /// write: the read it would be conditioned on never happened, so
  /// proceeding would blind-write f({}) under a stale remembered token
  /// (tests/store_api_test.cpp: RmwOnUnavailableReadDoesNotWrite).
  template <typename F>
  StorePutResult rmw(const Key& key, F&& f) {
    StoreGetResult r = get(key);
    if (!r.ok()) {
      StorePutResult out;
      out.status = r.status;
      out.receipt.unavailable = true;
      out.receipt.outcome = CoordOutcome::kUnavailable;
      return out;
    }
    return put(key, std::forward<F>(f)(r.values));
  }

  /// Forgets the remembered token for `key` (the next put is blind).
  void forget(const Key& key) { tokens_.erase(key); }

  /// Adopts a token obtained OUTSIDE this session's own get() — e.g.
  /// the async replay path harvests coordinated reads long after
  /// issuing them.  Same rule as get(): an unavailable read must not
  /// call this.  The token stays opaque: adopting does not validate it
  /// (only the store can), it just ferries the bytes.
  void remember(const Key& key, CausalToken token) {
    tokens_[key] = std::move(token);
  }

  [[nodiscard]] CausalToken token_for(const Key& key) const {
    const auto it = tokens_.find(key);
    return it == tokens_.end() ? CausalToken{} : it->second;
  }

 private:
  ClientId id_;
  Store* store_;
  std::map<Key, CausalToken> tokens_;  // ordered: see dvv_lint unordered-container
};

}  // namespace dvv::kv
