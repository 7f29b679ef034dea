// dvv/kv/store.cpp
//
// The type-erased half of the facade: TypedStore<M> wraps Cluster<M>
// behind the Store interface, minting CausalTokens on every result that
// leaves and strictly decoding every token that arrives.  All six
// mechanisms are instantiated HERE, once — harness binaries that drive
// the facade stop paying the per-mechanism template fan-out.
#include "kv/store.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "obs/metrics.hpp"

namespace dvv::kv {

namespace {

/// Folds a facade result's status into the store.* taxonomy.
void note_status(StoreStatus status) {
  obs::StoreMetrics& m = obs::store_metrics();
  switch (status) {
    case StoreStatus::kOk: m.status_ok.inc(); break;
    case StoreStatus::kUnavailable: m.status_unavailable.inc(); break;
    case StoreStatus::kBadToken: m.status_bad_token.inc(); break;
  }
}

[[nodiscard]] StoreGetResult note_get(StoreGetResult out) {
  obs::store_metrics().gets.inc();
  note_status(out.status);
  return out;
}

[[nodiscard]] StorePutResult note_put(StorePutResult out) {
  obs::store_metrics().puts.inc();
  note_status(out.status);
  return out;
}

/// Compile-time mechanism -> wire tag.  Two mechanisms sharing a
/// Context TYPE still get distinct tags (see token.hpp).
template <typename M>
struct MechanismTag;
template <>
struct MechanismTag<DvvMechanism> {
  static constexpr MechanismId kId = MechanismId::kDvv;
};
template <>
struct MechanismTag<DvvSetMechanism> {
  static constexpr MechanismId kId = MechanismId::kDvvSet;
};
template <>
struct MechanismTag<ServerVvMechanism> {
  static constexpr MechanismId kId = MechanismId::kServerVv;
};
template <>
struct MechanismTag<ClientVvMechanism> {
  static constexpr MechanismId kId = MechanismId::kClientVv;
};
template <>
struct MechanismTag<VveMechanism> {
  static constexpr MechanismId kId = MechanismId::kVve;
};
template <>
struct MechanismTag<HistoryMechanism> {
  static constexpr MechanismId kId = MechanismId::kCausalHistory;
};

template <CausalityMechanism M>
class TypedStore final : public Store {
 public:
  using Context = typename M::Context;
  static constexpr MechanismId kId = MechanismTag<M>::kId;

  TypedStore(const StoreConfig& config, M mechanism)
      : cluster_(config, std::move(mechanism)) {}

  // ---- identity / topology ----------------------------------------------

  [[nodiscard]] std::string_view mechanism_name() const noexcept override {
    return M::kName;
  }
  [[nodiscard]] MechanismId mechanism_id() const noexcept override { return kId; }
  [[nodiscard]] std::size_t servers() const noexcept override {
    return cluster_.servers();
  }
  [[nodiscard]] std::vector<ReplicaId> preference_list(
      const Key& key) const override {
    return cluster_.preference_list(key);
  }
  [[nodiscard]] std::optional<ReplicaId> default_coordinator(
      const Key& key) const override {
    return cluster_.default_coordinator(key);
  }
  [[nodiscard]] bool alive(ReplicaId r) const override {
    return cluster_.replica(r).alive();
  }
  void set_alive(ReplicaId r, bool alive) override {
    cluster_.replica(r).set_alive(alive);
  }
  void crash(ReplicaId r, std::size_t torn_tail_bytes) override {
    cluster_.crash(r, torn_tail_bytes);
  }
  store::RecoveryStats recover(ReplicaId r) override { return cluster_.recover(r); }

  // ---- synchronous request path -----------------------------------------

  [[nodiscard]] StoreGetResult get(const Key& key,
                                   std::optional<ReplicaId> from) const override {
    const std::optional<ReplicaId> source =
        from.has_value() ? from : cluster_.default_coordinator(key);
    StoreGetResult out;
    if (!source.has_value() || !cluster_.replica(*source).alive()) {
      out.status = StoreStatus::kUnavailable;
      return note_get(std::move(out));
    }
    return note_get(to_get_result(cluster_.get(key, *source)));
  }

  StorePutResult put(const Key& key, ClientId client, const CausalToken& token,
                     Value value) override {
    Context ctx;
    if (!decode_token(token, kId, ctx)) return note_put(bad_token_put());
    return note_put(
        to_put_result(cluster_.put(key, client, ctx, std::move(value))));
  }

  StorePutResult put_at(const Key& key, ReplicaId coordinator, ClientId client,
                        const CausalToken& token, Value value,
                        const std::vector<ReplicaId>& replicate_to) override {
    Context ctx;
    if (!decode_token(token, kId, ctx)) return note_put(bad_token_put());
    return note_put(to_put_result(cluster_.put(key, coordinator, client, ctx,
                                               std::move(value), replicate_to)));
  }

  StorePutResult put_with_handoff(const Key& key, ReplicaId coordinator,
                                  ClientId client, const CausalToken& token,
                                  Value value) override {
    Context ctx;
    if (!decode_token(token, kId, ctx)) return note_put(bad_token_put());
    return note_put(to_put_result(cluster_.put_with_handoff(
        key, coordinator, client, ctx, std::move(value))));
  }

  // ---- shard-per-thread server path --------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept override {
    return cluster_.shard_count();
  }
  [[nodiscard]] std::size_t shard_of(ReplicaId r) const noexcept override {
    return cluster_.shard_of(r);
  }
  StorePutResult put_direct_local(const Key& key, ClientId client,
                                  const CausalToken& token,
                                  Value value) override {
    Context ctx;
    if (!decode_token(token, kId, ctx)) return note_put(bad_token_put());
    const std::optional<ReplicaId> coord = cluster_.default_coordinator(key);
    if (!coord.has_value()) return note_put(unavailable_put());
    return note_put(to_put_result(
        cluster_.put_direct(key, *coord, client, ctx, std::move(value))));
  }

  [[nodiscard]] StoreGetResult get_local(const Key& key) override {
    return get(key, std::nullopt);
  }

  // put_direct / get_direct resolve the coordinator on the CALLING
  // thread before hopping into its serial domain — the world-stop
  // inside a membership transition parks only shard threads, so a
  // client thread's routing read would race a transition from the
  // admin thread.  routing_mu_ closes that hole: client entries take
  // it shared (they never block each other), the control-plane
  // mutators below take it exclusive.  Shard threads never touch this
  // lock — their routing reads are already serialized by the
  // world-stop itself (the dvvd path enters via *_local).

  StorePutResult put_direct(const Key& key, ClientId client,
                            const CausalToken& token, Value value) override {
    std::shared_lock<std::shared_mutex> guard(routing_mu_);
    const std::optional<ReplicaId> coord = cluster_.default_coordinator(key);
    if (!coord.has_value()) return note_put(unavailable_put());
    StorePutResult out;
    cluster_.run_at(*coord, [&] {
      out = put_direct_local(key, client, token, std::move(value));
    });
    return out;
  }

  [[nodiscard]] StoreGetResult get_direct(const Key& key) override {
    std::shared_lock<std::shared_mutex> guard(routing_mu_);
    const std::optional<ReplicaId> coord = cluster_.default_coordinator(key);
    if (!coord.has_value()) {
      StoreGetResult out;
      out.status = StoreStatus::kUnavailable;
      return note_get(std::move(out));
    }
    StoreGetResult out;
    cluster_.run_at(*coord, [&] { out = get_local(key); });
    return out;
  }

  // ---- asynchronous quorum coordination ---------------------------------

  [[nodiscard]] std::uint64_t begin_read_at(const Key& key, ReplicaId coordinator,
                                            std::size_t quorum,
                                            const ReadOptions& opts) override {
    obs::store_metrics().begin_reads.inc();
    return cluster_.begin_read_at(key, coordinator, quorum, opts);
  }
  [[nodiscard]] StoreWriteBegin begin_write(
      const Key& key, ReplicaId coordinator, ClientId client,
      const CausalToken& token, Value value,
      const std::vector<ReplicaId>& replicate_to,
      const WriteOptions& opts) override {
    obs::store_metrics().begin_writes.inc();
    Context ctx;
    if (!decode_token(token, kId, ctx)) {
      note_status(StoreStatus::kBadToken);
      return StoreWriteBegin{StoreStatus::kBadToken, kInvalidRequestId};
    }
    note_status(StoreStatus::kOk);
    return StoreWriteBegin{
        StoreStatus::kOk,
        cluster_.begin_write(key, coordinator, client, ctx, std::move(value),
                             replicate_to, opts)};
  }
  [[nodiscard]] bool request_open(std::uint64_t id) const override {
    return cluster_.request_open(id);
  }
  [[nodiscard]] bool request_terminal(std::uint64_t id) const override {
    return cluster_.request_terminal(id);
  }
  [[nodiscard]] std::vector<std::uint64_t> take_completed_requests() override {
    return cluster_.take_completed_requests();
  }
  bool finalize_request(std::uint64_t id) override {
    return cluster_.finalize_request(id);
  }
  [[nodiscard]] StoreReadHarvest take_read_result(std::uint64_t id) override {
    auto h = cluster_.take_read_result(id);
    StoreReadHarvest out;
    out.result = to_get_result(std::move(h.result));
    out.key = std::move(h.key);
    out.coordinator = h.coordinator;
    out.outcome = h.outcome;
    out.quorum = h.quorum;
    out.asked = h.asked;
    out.responders = std::move(h.responders);
    out.state_bytes = h.state_bytes;
    out.metadata_bytes = h.metadata_bytes;
    out.siblings = h.siblings;
    out.clock_entries = h.clock_entries;
    return out;
  }
  [[nodiscard]] PutReceipt take_write_receipt(std::uint64_t id) override {
    return cluster_.take_write_receipt(id);
  }
  [[nodiscard]] const PutReceipt& peek_write_receipt(
      std::uint64_t id) const override {
    return cluster_.peek_write_receipt(id);
  }
  [[nodiscard]] const CoordStats& coord_stats() const noexcept override {
    return cluster_.coord_stats();
  }
  [[nodiscard]] std::size_t requests_in_flight() const noexcept override {
    return cluster_.requests_in_flight();
  }

  // ---- transport hooks ---------------------------------------------------

  [[nodiscard]] net::Transport& transport() noexcept override {
    return cluster_.transport();
  }
  std::size_t pump() override { return cluster_.pump(); }
  std::size_t pump_all() override { return cluster_.pump_all(); }
  void partition(const std::vector<std::vector<ReplicaId>>& groups,
                 std::string label) override {
    cluster_.partition(groups, std::move(label));
  }
  void heal() override { cluster_.heal(); }
  [[nodiscard]] const DeliveryDrops& delivery_drops() const noexcept override {
    return cluster_.delivery_drops();
  }

  // ---- hinted handoff + anti-entropy hooks -------------------------------

  std::size_t deliver_hints() override { return cluster_.deliver_hints(); }
  [[nodiscard]] std::size_t hinted_count() const override {
    return cluster_.hinted_count();
  }
  DigestRepairReport anti_entropy_digest() override {
    obs::store_metrics().anti_entropy_runs.inc();
    return cluster_.anti_entropy_digest();
  }
  sync::SyncStats anti_entropy_digest_pair(ReplicaId a, ReplicaId b) override {
    return cluster_.anti_entropy_digest_pair(a, b);
  }

  // ---- elastic membership -------------------------------------------------

  [[nodiscard]] std::uint64_t ring_epoch() const noexcept override {
    return cluster_.ring_epoch();
  }
  [[nodiscard]] std::vector<ReplicaId> members() const override {
    return cluster_.members();
  }
  [[nodiscard]] bool rebalancing() const noexcept override {
    return cluster_.rebalancing();
  }
  bool join_node(ReplicaId node) override {
    std::unique_lock<std::shared_mutex> guard(routing_mu_);
    if (node >= cluster_.servers()) return false;
    if (cluster_.membership().is_member(node)) return false;
    if (!cluster_.replica(node).alive()) return false;
    cluster_.join_node(node);
    return true;
  }
  bool leave_node(ReplicaId node) override {
    std::unique_lock<std::shared_mutex> guard(routing_mu_);
    if (!can_depart(node)) return false;
    cluster_.leave_node(node);
    return true;
  }
  membership::RebalanceStats complete_rebalance() override {
    std::unique_lock<std::shared_mutex> guard(routing_mu_);
    return cluster_.complete_rebalance_stopped();
  }

  // ---- observability -----------------------------------------------------

  [[nodiscard]] Footprint footprint() const override {
    return cluster_.footprint();
  }
  [[nodiscard]] StoreKeyStats key_stats(ReplicaId r,
                                        const Key& key) const override {
    StoreKeyStats out;
    const auto* stored = cluster_.replica(r).find(key);
    if (stored == nullptr) return out;
    const M& m = cluster_.mechanism();
    out.found = true;
    out.metadata_bytes = m.metadata_bytes(*stored);
    out.total_bytes = m.total_bytes(*stored);
    out.siblings = m.sibling_count(*stored);
    out.clock_entries = m.clock_entries(*stored);
    return out;
  }
  [[nodiscard]] std::vector<Key> keys(ReplicaId r) const override {
    return cluster_.replica(r).keys();
  }
  [[nodiscard]] std::optional<std::string> encoded_state(
      ReplicaId r, const Key& key) const override {
    const auto* stored = cluster_.replica(r).find(key);
    if (stored == nullptr) return std::nullopt;
    return Replica<M>::encode_state(*stored);
  }
  [[nodiscard]] std::vector<Value> values_at(ReplicaId r,
                                             const Key& key) const override {
    const auto* stored = cluster_.replica(r).find(key);
    if (stored == nullptr) return {};
    return cluster_.mechanism().values_of(*stored);
  }

 private:
  /// Maps a templated GetResult to the facade's: the raw context leaves
  /// the process only as a minted token, and an unavailable reply
  /// carries NO token (an error must never clobber a client's context).
  [[nodiscard]] StoreGetResult to_get_result(
      typename Cluster<M>::GetResult r) const {
    StoreGetResult out;
    if (r.unavailable) {
      out.status = StoreStatus::kUnavailable;
      out.replies = r.replies;
      return out;
    }
    out.found = r.found;
    out.degraded = r.degraded;
    out.replies = r.replies;
    out.values = std::move(r.values);
    out.token = encode_token(kId, r.context);
    return out;
  }

  [[nodiscard]] static StorePutResult to_put_result(PutReceipt receipt) {
    StorePutResult out;
    out.status = receipt.unavailable ? StoreStatus::kUnavailable : StoreStatus::kOk;
    out.receipt = std::move(receipt);
    return out;
  }

  [[nodiscard]] static StorePutResult bad_token_put() {
    StorePutResult out;
    out.status = StoreStatus::kBadToken;
    return out;
  }

  /// A node may leave only while it is a member and the ring stays at
  /// or above the replication floor without it.
  [[nodiscard]] bool can_depart(ReplicaId node) const {
    return cluster_.membership().is_member(node) &&
           cluster_.members().size() > cluster_.membership().replication();
  }

  [[nodiscard]] static StorePutResult unavailable_put() {
    StorePutResult out;
    out.status = StoreStatus::kUnavailable;
    out.receipt.unavailable = true;
    out.receipt.outcome = CoordOutcome::kUnavailable;
    return out;
  }

  Cluster<M> cluster_;
  /// Client-thread routing reads (shared) vs membership control plane
  /// (exclusive) — see the put_direct/get_direct comment above.
  mutable std::shared_mutex routing_mu_;
};

}  // namespace

const std::vector<std::string>& known_mechanisms() {
  static const std::vector<std::string> kNames = {
      "dvv", "dvvset", "server-vv", "client-vv", "vve", "causal-history"};
  return kNames;
}

std::string default_mechanism_name() {
  if (const char* v = std::getenv("DVV_MECHANISM")) {
    if (mechanism_id_of(v).has_value()) return v;
    // A typo here (e.g. DVV_MECHANISM=dvvst in a CI matrix leg) must
    // not silently run everything against the default and pass.
    std::string expected;
    for (const std::string& name : known_mechanisms()) {
      if (!expected.empty()) expected += ", ";
      expected += name;
    }
    std::fprintf(stderr,
                 "DVV_MECHANISM=\"%s\" is not a known mechanism; expected one "
                 "of: %s\n",
                 v, expected.c_str());
    std::abort();
  }
  return "dvv";
}

std::unique_ptr<Store> make_store(StoreConfig config) {
  std::string name =
      config.mechanism.empty() ? default_mechanism_name() : config.mechanism;
  const std::optional<MechanismId> id = mechanism_id_of(name);
  if (!id.has_value()) return nullptr;
  switch (*id) {
    case MechanismId::kDvv:
      return std::make_unique<TypedStore<DvvMechanism>>(config, DvvMechanism{});
    case MechanismId::kDvvSet:
      return std::make_unique<TypedStore<DvvSetMechanism>>(config,
                                                           DvvSetMechanism{});
    case MechanismId::kServerVv:
      return std::make_unique<TypedStore<ServerVvMechanism>>(config,
                                                             ServerVvMechanism{});
    case MechanismId::kClientVv:
      return std::make_unique<TypedStore<ClientVvMechanism>>(
          config, config.prune_cap > 0 ? pruned_client_vv(config.prune_cap)
                                       : ClientVvMechanism{});
    case MechanismId::kVve:
      return std::make_unique<TypedStore<VveMechanism>>(config, VveMechanism{});
    case MechanismId::kCausalHistory:
      return std::make_unique<TypedStore<HistoryMechanism>>(config,
                                                            HistoryMechanism{});
  }
  return nullptr;
}

std::unique_ptr<Store> make_store(std::string_view mechanism,
                                  StoreConfig config) {
  config.mechanism = std::string(mechanism);
  return make_store(std::move(config));
}

}  // namespace dvv::kv
