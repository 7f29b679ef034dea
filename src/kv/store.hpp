// dvv/kv/store.hpp
//
// kv::Store — the mechanism-agnostic public API of the replicated
// store, and the boundary where causal contexts become opaque.
//
// The templated Cluster<M> welds every caller to one causality
// mechanism at compile time and hands clients the raw Context type —
// inspectable, forgeable, cross-wireable.  The paper's client contract
// is the opposite: a GET returns sibling values plus an opaque token,
// the client returns the token with its next PUT, and the server mints
// the dots.  Store is that contract as a type-erased facade:
//
//   * constructed from a mechanism NAME at runtime
//     (make_store("dvvset", config)) — one binary can sweep all six
//     mechanisms without instantiating six copies of every harness;
//   * contexts cross the boundary only as CausalToken (kv/token.hpp):
//     wire bytes under a versioned, checksummed, mechanism-tagged
//     header;
//   * a corrupted, truncated or cross-mechanism token is rejected as
//     StoreStatus::kBadToken without touching any replica state —
//     never an assert, never a silent blind write;
//   * what its callers use of Cluster<M> — quorum options, receipts,
//     the asynchronous request engine, hinted handoff, digest
//     anti-entropy, transport faults, crash/recovery — is
//     re-exposed through mechanism-independent types (kv/results.hpp,
//     kv/coordinator.hpp).
//
// The facade wraps Cluster<M> (store.cpp instantiates it for all six
// mechanisms) and adds nothing but the token boundary, so it makes
// the same decisions Cluster<M> does.  It is the one client path:
// dvvd, the trace replayer (workload/replay.hpp) and the lockstep
// causality oracle (oracle/audit.hpp) all drive it.  Use Cluster<M>
// directly only when the point IS the mechanism's internals (kernel
// tests, clock-shape benches, examples that print clocks); everything
// client-shaped goes through Store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/config.hpp"
#include "kv/coordinator.hpp"
#include "kv/results.hpp"
#include "kv/token.hpp"
#include "kv/types.hpp"
#include "membership/membership.hpp"
#include "net/transport.hpp"
#include "store/backend.hpp"

namespace dvv::kv {

/// Outcome of a facade operation.  kBadToken is the new failure mode
/// the opaque boundary introduces: the request was REJECTED before any
/// replica was touched because the causal token did not strictly
/// decode for this store's mechanism.
enum class StoreStatus : std::uint8_t {
  kOk = 0,
  kUnavailable = 1,  ///< no alive replica could serve (error reply, not a crash)
  kBadToken = 2,     ///< token corrupt/truncated/cross-mechanism; state untouched
};

[[nodiscard]] constexpr const char* to_string(StoreStatus s) noexcept {
  switch (s) {
    case StoreStatus::kOk: return "ok";
    case StoreStatus::kUnavailable: return "unavailable";
    case StoreStatus::kBadToken: return "bad-token";
  }
  return "?";
}

/// What a GET hands the client: the sibling values and the opaque
/// causal token to return with the next PUT.  Mirrors the templated
/// Replica<M>::GetResult with the raw Context replaced by the token.
struct StoreGetResult {
  StoreStatus status = StoreStatus::kOk;
  bool found = false;
  bool degraded = false;      ///< quorum read completed below R
  std::size_t replies = 0;    ///< replicas that actually served the read
  std::vector<Value> values;  ///< all live siblings
  CausalToken token;          ///< opaque context for the client's next PUT

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
  [[nodiscard]] bool unavailable() const noexcept {
    return status == StoreStatus::kUnavailable;
  }
};

/// What a PUT reports: the coordination receipt (kv/coordinator.hpp)
/// plus the facade status.  On kBadToken the receipt is empty — there
/// was no write to receipt.
struct StorePutResult {
  StoreStatus status = StoreStatus::kOk;
  PutReceipt receipt;

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
};

/// Sentinel that never names a real request.  The engine's ids start
/// at (slot 0, generation 0) == 0, so 0 would alias the first genuine
/// request — a caller that stored a rejected begin's id unchecked
/// could then harvest someone else's receipt.
inline constexpr std::uint64_t kInvalidRequestId = ~0ULL;

/// Result of starting an asynchronous write.  kBadToken means no
/// request was started: no state was touched and `id` is
/// kInvalidRequestId, which request_open/request_terminal/finalize
/// treat as unknown.
struct StoreWriteBegin {
  StoreStatus status = StoreStatus::kOk;
  std::uint64_t id = kInvalidRequestId;

  [[nodiscard]] bool ok() const noexcept { return status == StoreStatus::kOk; }
};

/// Harvested asynchronous read: the client-visible result plus the
/// coordination trace (who answered, what the merged reply costs).
struct StoreReadHarvest {
  StoreGetResult result;
  Key key;
  ReplicaId coordinator = 0;
  CoordOutcome outcome = CoordOutcome::kPending;
  std::size_t quorum = 0;
  std::size_t asked = 0;
  std::vector<ReplicaId> responders;
  std::size_t state_bytes = 0;  ///< total_bytes of the merged reply
  std::size_t metadata_bytes = 0;
  std::size_t siblings = 0;
  std::size_t clock_entries = 0;
};

/// Per-key metadata measurements at one replica (observability: the
/// workload replayer meters replies from here without naming Stored).
struct StoreKeyStats {
  bool found = false;
  std::size_t metadata_bytes = 0;
  std::size_t total_bytes = 0;
  std::size_t siblings = 0;
  std::size_t clock_entries = 0;
};

/// Everything a store needs at construction: the cluster geometry and
/// wiring (kv/config.hpp) plus the runtime mechanism choice.
/// `mechanism` empty selects the process default (env DVV_MECHANISM
/// when set — see default_mechanism_name() — else "dvv").
struct StoreConfig : ClusterConfig {
  std::string mechanism;      ///< "", "dvv", "dvvset", "server-vv",
                              ///  "client-vv", "vve", "causal-history"
  std::size_t prune_cap = 0;  ///< client-vv only: >0 enables the unsafe
                              ///  Riak-classic prune cap (experiment E8)
};

/// The type-erased facade.  One virtual call per operation; the hot
/// paths behind it (clock kernels, codec, transport) dominate, so the
/// dispatch overhead stays within bench noise (bench_context_token).
class Store {
 public:
  virtual ~Store() = default;

  // ---- identity / topology ----------------------------------------------

  [[nodiscard]] virtual std::string_view mechanism_name() const noexcept = 0;
  [[nodiscard]] virtual MechanismId mechanism_id() const noexcept = 0;
  [[nodiscard]] virtual std::size_t servers() const noexcept = 0;
  [[nodiscard]] virtual std::vector<ReplicaId> preference_list(
      const Key& key) const = 0;
  [[nodiscard]] virtual std::optional<ReplicaId> default_coordinator(
      const Key& key) const = 0;
  [[nodiscard]] virtual bool alive(ReplicaId r) const = 0;
  virtual void set_alive(ReplicaId r, bool alive) = 0;
  virtual void crash(ReplicaId r, std::size_t torn_tail_bytes = 0) = 0;
  virtual store::RecoveryStats recover(ReplicaId r) = 0;

  // ---- synchronous request path -----------------------------------------

  /// GET served by one replica (default: the key's coordinator).  A
  /// dead or absent source yields kUnavailable — and, as everywhere, an
  /// error result never carries a token (a clobbered token would turn
  /// the client's next PUT into a blind write).
  [[nodiscard]] virtual StoreGetResult get(
      const Key& key, std::optional<ReplicaId> from = std::nullopt) const = 0;

  /// PUT with the client's token (empty = blind write): default
  /// coordinator, full immediate replication.
  virtual StorePutResult put(const Key& key, ClientId client,
                             const CausalToken& token, Value value) = 0;

  /// PUT with explicit routing (coordinator + replication fan-out).
  virtual StorePutResult put_at(const Key& key, ReplicaId coordinator,
                                ClientId client, const CausalToken& token,
                                Value value,
                                const std::vector<ReplicaId>& replicate_to) = 0;

  /// PUT through the sloppy quorum (hints parked for dead members).
  virtual StorePutResult put_with_handoff(const Key& key, ReplicaId coordinator,
                                          ClientId client,
                                          const CausalToken& token,
                                          Value value) = 0;

  // ---- shard-per-thread server path --------------------------------------
  //
  // The dvvd request path.  Over a threaded transport every replica
  // lives in exactly one shard's serial domain; the *_local entries
  // below touch the coordinator replica directly and are therefore
  // legal ONLY on the owning shard's thread (the server's event loop).
  // The non-local spellings hop into the coordinator's shard themselves
  // and may be called from any non-shard thread — tests and bench
  // drivers.  Over an inline/sim transport there is one implicit shard
  // and every spelling is legal everywhere.

  /// Shards in the execution domain (1 unless the transport is
  /// threaded), and the shard owning replica `r`.
  [[nodiscard]] virtual std::size_t shard_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t shard_of(ReplicaId r) const noexcept = 0;

  /// W=1 coordinator-apply PUT: completes on the coordinator's local
  /// apply, replication to the rest of the preference list is
  /// fire-and-forget.  MUST run on the coordinator's shard.
  virtual StorePutResult put_direct_local(const Key& key, ClientId client,
                                          const CausalToken& token,
                                          Value value) = 0;

  /// Coordinator-local GET (no quorum round).  MUST run on the
  /// coordinator's shard.
  [[nodiscard]] virtual StoreGetResult get_local(const Key& key) = 0;

  /// Blocking wrappers: run the op on the coordinator's shard and wait
  /// for it.  For tests and bench drivers on non-shard threads.
  virtual StorePutResult put_direct(const Key& key, ClientId client,
                                    const CausalToken& token, Value value) = 0;
  [[nodiscard]] virtual StoreGetResult get_direct(const Key& key) = 0;

  // ---- asynchronous quorum coordination ---------------------------------

  [[nodiscard]] virtual std::uint64_t begin_read_at(
      const Key& key, ReplicaId coordinator, std::size_t quorum,
      const ReadOptions& opts = {}) = 0;
  [[nodiscard]] virtual StoreWriteBegin begin_write(
      const Key& key, ReplicaId coordinator, ClientId client,
      const CausalToken& token, Value value,
      const std::vector<ReplicaId>& replicate_to,
      const WriteOptions& opts = {}) = 0;
  [[nodiscard]] virtual bool request_open(std::uint64_t id) const = 0;
  [[nodiscard]] virtual bool request_terminal(std::uint64_t id) const = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> take_completed_requests() = 0;
  virtual bool finalize_request(std::uint64_t id) = 0;
  [[nodiscard]] virtual StoreReadHarvest take_read_result(std::uint64_t id) = 0;
  [[nodiscard]] virtual PutReceipt take_write_receipt(std::uint64_t id) = 0;
  [[nodiscard]] virtual const PutReceipt& peek_write_receipt(
      std::uint64_t id) const = 0;
  [[nodiscard]] virtual const CoordStats& coord_stats() const noexcept = 0;
  [[nodiscard]] virtual std::size_t requests_in_flight() const noexcept = 0;

  // ---- transport hooks ---------------------------------------------------

  [[nodiscard]] virtual net::Transport& transport() noexcept = 0;
  virtual std::size_t pump() = 0;
  virtual std::size_t pump_all() = 0;
  virtual void partition(const std::vector<std::vector<ReplicaId>>& groups,
                         std::string label = {}) = 0;
  virtual void heal() = 0;
  [[nodiscard]] virtual const DeliveryDrops& delivery_drops() const noexcept = 0;

  // ---- hinted handoff + anti-entropy hooks -------------------------------

  virtual std::size_t deliver_hints() = 0;
  [[nodiscard]] virtual std::size_t hinted_count() const = 0;
  /// Full digest repair to a fixed point (Cluster::anti_entropy_digest).
  virtual DigestRepairReport anti_entropy_digest() = 0;
  /// One pairwise digest session, run in place; empty stats when either
  /// replica is dead or their link is cut.
  virtual sync::SyncStats anti_entropy_digest_pair(ReplicaId a,
                                                   ReplicaId b) = 0;

  // ---- elastic membership (src/membership) -------------------------------
  //
  // Join / graceful-leave as store transitions.  The mutating entries
  // are control-plane: they stop the world internally (legal under
  // concurrent client traffic on a threaded transport) but must be
  // called from a NON-shard thread — dvvd routes them through a
  // dedicated admin thread.  The bool returns report precondition
  // failures (out-of-range id, already/not a member, leave below the
  // replication floor) without touching any state — the dvvd admin
  // path answers kBadRequest instead of asserting.

  [[nodiscard]] virtual std::uint64_t ring_epoch() const noexcept = 0;
  [[nodiscard]] virtual std::vector<ReplicaId> members() const = 0;
  [[nodiscard]] virtual bool rebalancing() const noexcept = 0;
  virtual bool join_node(ReplicaId node) = 0;
  virtual bool leave_node(ReplicaId node) = 0;
  /// Drives the rebalance to completion; returns the cumulative stats.
  virtual membership::RebalanceStats complete_rebalance() = 0;

  // ---- observability -----------------------------------------------------

  [[nodiscard]] virtual Footprint footprint() const = 0;
  [[nodiscard]] virtual StoreKeyStats key_stats(ReplicaId r,
                                                const Key& key) const = 0;
  [[nodiscard]] virtual std::vector<Key> keys(ReplicaId r) const = 0;
  /// Full codec encoding of one replica's state for `key` (nullopt when
  /// absent) — the byte-level probe twin and convergence tests compare.
  [[nodiscard]] virtual std::optional<std::string> encoded_state(
      ReplicaId r, const Key& key) const = 0;
  /// The sibling values replica `r` stores for `key` (empty when
  /// absent).  Like encoded_state this is a raw read of replica memory,
  /// alive or not — the oracle audits paused replicas, which get()
  /// refuses as kUnavailable.
  [[nodiscard]] virtual std::vector<Value> values_at(ReplicaId r,
                                                     const Key& key) const = 0;
};

/// The six mechanism names make_store accepts, in MechanismId order.
[[nodiscard]] const std::vector<std::string>& known_mechanisms();

/// Process default mechanism name: env DVV_MECHANISM when set (the CI
/// matrix re-runs the facade-driven suites under different values),
/// else "dvv".  An UNRECOGNIZED env value aborts with a message — a
/// typo in a CI leg must not silently run everything against the
/// default and pass.
[[nodiscard]] std::string default_mechanism_name();

/// Builds a store for `config.mechanism` (empty = process default).
/// Returns nullptr for an unknown mechanism name passed explicitly —
/// runtime mechanism selection deserves an inspectable error; only the
/// env-driven default (see above) aborts.
[[nodiscard]] std::unique_ptr<Store> make_store(StoreConfig config);

/// Convenience overload: name + config (name wins over config.mechanism).
[[nodiscard]] std::unique_ptr<Store> make_store(std::string_view mechanism,
                                                StoreConfig config = {});

}  // namespace dvv::kv
