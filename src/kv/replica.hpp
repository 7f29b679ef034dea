// dvv/kv/replica.hpp
//
// One storage server: a map from key to the mechanism's per-key sibling
// state.  The replica is deliberately thin — every causality decision
// lives in the mechanism's kernel (src/core) — so that what the cluster
// measures is the clock scheme, not incidental server logic.
//
// Durability: the in-memory map is the replica's volatile state; every
// mutation writes through to a pluggable StorageBackend (src/store) as
// the key's full post-write codec encoding.  crash() drops the volatile
// state (plus whatever the backend's durability model loses); recover()
// replays the surviving log and re-dirties every key so the anti-entropy
// Merkle trees rebuild through the KeyObserver hook.  With the default
// MemBackend the write-through is a no-op and crash() is total loss —
// the seed's behaviour, now explicit.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/mechanism.hpp"
#include "kv/results.hpp"
#include "kv/types.hpp"
#include "store/backend.hpp"
#include "sync/key_digest.hpp"
#include "sync/key_observer.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace dvv::kv {

template <CausalityMechanism M>
class Replica {
 public:
  using Context = typename M::Context;
  using Stored = typename M::Stored;

  struct GetResult {
    bool found = false;
    bool unavailable = false;   ///< request could not be served at all
    bool degraded = false;      ///< quorum read: fewer than R replicas answered
    std::size_t replies = 0;    ///< replicas that actually served the read
    std::vector<Value> values;  ///< all live siblings
    Context context;            ///< causal context for the client's next PUT
  };

  explicit Replica(ReplicaId id,
                   std::unique_ptr<store::StorageBackend> backend = nullptr)
      : id_(id),
        backend_(backend ? std::move(backend) : store::make_backend({})) {}

  [[nodiscard]] ReplicaId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t key_count() const noexcept { return data_.size(); }
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  /// Pause/unpause (fail-stop with memory intact).  A PAUSED replica
  /// keeps its volatile state; contrast crash(), which loses it.
  void set_alive(bool alive) noexcept { alive_ = alive; }

  /// The storage backend this replica writes through (introspection for
  /// tests and benches — e.g. forcing a flush before a crash).
  [[nodiscard]] store::StorageBackend& backend() noexcept { return *backend_; }

  /// Registers the anti-entropy subsystem's dirty-key hook.  Every
  /// mutation path reports the touched key so Merkle digests can be
  /// refreshed incrementally (src/sync).  Null disables reporting.
  void set_observer(sync::KeyObserver* observer) noexcept { observer_ = observer; }

  // ---- crash / recovery --------------------------------------------------

  /// True crash: stops serving AND drops all volatile state.  What
  /// survives is the backend's durable log (nothing for MemBackend; the
  /// flushed prefix for WalBackend).  `torn_tail_bytes` > 0 additionally
  /// injects a torn write — that many bytes of the first un-flushed
  /// record hit the disk before power died.
  void crash(std::size_t torn_tail_bytes = 0) {
    alive_ = false;
    for (const auto& [key, stored] : data_) touched(key);  // trees must forget
    data_.clear();
    hinted_.clear();
    backend_->drop_volatile(torn_tail_bytes);
  }

  /// Replays the backend's surviving log into fresh volatile state and
  /// comes back alive.  Every recovered key is re-dirtied so the Merkle
  /// trees rebuild lazily through the observer.  A LOSSY recovery (the
  /// log dropped records, or there was no log) additionally bumps this
  /// replica's clock incarnation: the recovered counters have rolled
  /// back, so minting dots from them would reuse event ids the peers
  /// already hold for other values.  New writes therefore come from the
  /// incarnation-qualified actor (kv/types.hpp) — Riak's vnode-epoch
  /// move.  Idempotent per crash.
  store::RecoveryStats recover() {
    data_.clear();
    hinted_.clear();
    store::RecoveryResult replay = backend_->recover();
    for (store::Record& rec : replay.records) {
      switch (rec.type) {
        case store::RecordType::kData:
          decode_into(rec.state, data_[rec.key]);
          break;
        case store::RecordType::kHint:
          decode_into(rec.state, hinted_[{rec.owner, rec.key}]);
          break;
        case store::RecordType::kHintDrop:
          hinted_.erase({rec.owner, rec.key});
          break;
      }
    }
    for (const auto& [key, stored] : data_) touched(key);
    if (replay.stats.records_lost_unflushed > 0 ||
        replay.stats.torn_records_dropped > 0) {
      ++incarnation_;
      DVV_ASSERT_MSG(clock_actor() < kClientIdBase,
                     "replica reborn into the client actor space");
    }
    alive_ = true;
    return replay.stats;
  }

  /// How many lossy recoveries this replica has lived through.  The
  /// counter itself stands in for the tiny fsync'd superblock (or
  /// wall-clock epoch) a real node derives its incarnation from — it is
  /// the one thing crash() deliberately does not lose.
  [[nodiscard]] std::uint64_t incarnation() const noexcept { return incarnation_; }

  /// Membership rejoin (src/membership): an id returning to the ring
  /// mints its new dots under the next incarnation, so counters rolled
  /// back — or simply forgotten by the peers — since its departure can
  /// never reuse a pre-departure event id.  Lossy recovery bumps on its
  /// own; this is the REJOIN-path bump the cluster applies on top.
  void bump_incarnation() {
    ++incarnation_;
    DVV_ASSERT_MSG(clock_actor() < kClientIdBase,
                   "replica reborn into the client actor space");
  }

  /// Actor id this replica's NEW dots are minted under.
  [[nodiscard]] ReplicaId clock_actor() const noexcept {
    return incarnation_actor(id_, incarnation_);
  }

  // ---- request path ------------------------------------------------------

  /// Local GET: siblings plus the causal context.
  [[nodiscard]] GetResult get(const M& m, const Key& key) const {
    GetResult r;
    r.replies = 1;
    auto it = data_.find(key);
    if (it == data_.end()) return r;
    r.found = true;
    r.values = m.values_of(it->second);
    r.context = m.context_of(it->second);
    return r;
  }

  /// Local coordinated PUT (the mechanism's update()).  When this
  /// replica coordinates for itself, the dot is minted under its
  /// incarnation-qualified clock actor so a lossily-recovered replica
  /// can never re-issue a pre-crash event id.
  void put(const M& m, const Key& key, ReplicaId coordinator, ClientId client,
           const Context& ctx, Value value) {
    const ReplicaId actor = coordinator == id_ ? clock_actor() : coordinator;
    Stored& slot = data_[key];
    m.update(slot, actor, client, ctx, std::move(value));
    touched(key);
    persist_data(key, slot);
  }

  /// Merges a remote sibling state for `key` into ours (one direction).
  /// When the merge leaves the stored bytes unchanged (duplicate
  /// delivery, dominated remote), nothing is dirtied or persisted — a
  /// converged replica's Merkle paths and WAL stay untouched.
  void merge_key(const M& m, const Key& key, const Stored& remote) {
    merge_key_view(m, key, remote);
  }

  /// merge_key whose key is still a view into a received buffer (the
  /// zero-copy delivery path): the lookup is transparent, so the key
  /// bytes are copied only when the key is NEW here — adoption, the one
  /// place the view path materializes.
  void merge_key_view(const M& m, std::string_view key, const Stored& remote) {
    auto it = data_.find(key);
    const bool inserted = it == data_.end();
    if (inserted) it = data_.try_emplace(Key(key)).first;
    const std::string before = inserted ? std::string() : encode_state(it->second);
    m.sync(it->second, remote);
    const std::string after = encode_state(it->second);
    if (!inserted && after == before) return;
    touched(it->first);
    backend_->append({store::RecordType::kData, it->first, 0, after});
  }

  /// merge_key for a payload that arrived as wire bytes (the transport
  /// layer ships full codec encodings): decodes and merges straight out
  /// of the received buffer.
  void merge_encoded(const M& m, std::string_view key, std::string_view bytes) {
    Stored remote;
    decode_into(bytes, remote);
    merge_key_view(m, key, remote);
  }

  /// Repair write-back: adopts `state` verbatim (the anti-entropy
  /// merge), skipping the write entirely when the key already holds
  /// those exact bytes.  Returns whether anything changed.
  bool adopt(const Key& key, const Stored& state) {
    const std::string after = encode_state(state);
    auto [it, inserted] = data_.try_emplace(key);
    if (!inserted && encode_state(it->second) == after) return false;
    it->second = state;
    touched(key);
    backend_->append({store::RecordType::kData, key, 0, after});
    return true;
  }

  /// Pairwise bidirectional anti-entropy over the union of both key
  /// sets — including parked hints, which are replica state like any
  /// other: after a full sync both replicas hold identical data AND
  /// identical hints for every (owner, key).
  void sync_with(const M& m, Replica& other) {
    for (const auto& [key, stored] : other.data_) merge_key(m, key, stored);
    for (const auto& [key, stored] : data_) other.merge_key(m, key, stored);
    for (const auto& [owner_key, stored] : other.hinted_) {
      stash_hint(m, owner_key.first, owner_key.second, stored);
    }
    for (const auto& [owner_key, stored] : hinted_) {
      other.stash_hint(m, owner_key.first, owner_key.second, stored);
    }
  }

  [[nodiscard]] const Stored* find(std::string_view key) const {
    auto it = data_.find(key);
    return it == data_.end() ? nullptr : &it->second;
  }

  /// All keys this replica holds (sorted: data_ is an ordered map).
  [[nodiscard]] std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(data_.size());
    for (const auto& [key, stored] : data_) out.push_back(key);
    return out;
  }

  /// Aggregate metadata statistics over every key (experiment E5/E6) —
  /// lifted to kv/results.hpp for the mechanism-agnostic facade; the
  /// historical nested name keeps existing callers compiling.
  using Footprint = ::dvv::kv::Footprint;

  [[nodiscard]] Footprint footprint(const M& m) const {
    Footprint f;
    for (const auto& [key, stored] : data_) {
      ++f.keys;
      f.siblings += m.sibling_count(stored);
      f.clock_entries += m.clock_entries(stored);
      f.metadata_bytes += m.metadata_bytes(stored);
      f.total_bytes += m.total_bytes(stored);
    }
    return f;
  }

  // ---- hinted handoff (Dynamo-style sloppy quorum) -----------------------
  //
  // When a preference-list member is down, the coordinator parks the
  // write on a fallback server *with a hint* naming the intended owner.
  // The hinted state is kept aside (it does not serve reads here — this
  // replica does not own the key) and is pushed to the owner when it
  // recovers.  Because the hinted state carries its full causality
  // metadata, delivery is just a sync: late, duplicated or reordered
  // deliveries are harmless.

  /// Parks `remote` for `owner` (merging with any hint already parked).
  void stash_hint(const M& m, ReplicaId owner, const Key& key, const Stored& remote) {
    auto [it, inserted] = hinted_.try_emplace({owner, key});
    const std::string before = inserted ? std::string() : encode_state(it->second);
    m.sync(it->second, remote);
    const std::string after = encode_state(it->second);
    if (!inserted && after == before) return;
    backend_->append({store::RecordType::kHint, key, owner, after});
  }

  /// stash_hint for a payload that arrived as wire bytes (a HintMsg).
  /// Hints are the failure path, so materializing the key here is fine.
  void stash_hint_encoded(const M& m, ReplicaId owner, std::string_view key,
                          std::string_view bytes) {
    Stored remote;
    decode_into(bytes, remote);
    stash_hint(m, owner, Key(key), remote);
  }

  /// Drops the parked hint for (owner, key) if its current bytes still
  /// digest to `digest` — the guard a hint-delivery ack carries, so an
  /// ack that raced a newer re-stash of the same slot cannot erase the
  /// newer write.  Returns whether the hint was dropped.
  bool drop_hint_if(ReplicaId owner, const Key& key, std::uint64_t digest) {
    auto it = hinted_.find({owner, key});
    if (it == hinted_.end()) return false;
    if (sync::state_digest(it->second) != digest) return false;
    backend_->append({store::RecordType::kHintDrop, key, owner, {}});
    hinted_.erase(it);
    return true;
  }

  /// Replaces a parked hint's state wholesale (anti-entropy folds the
  /// hint into the cluster merge and writes the merge back, so future
  /// rounds can recognize the hint as already-reconciled by digest).
  /// No-op unless the hint exists and its bytes actually change.
  void replace_hint(ReplicaId owner, const Key& key, const Stored& state) {
    auto it = hinted_.find({owner, key});
    if (it == hinted_.end()) return;
    const std::string after = encode_state(state);
    if (encode_state(it->second) == after) return;
    it->second = state;
    backend_->append({store::RecordType::kHint, key, owner, after});
  }

  /// Number of (owner, key) hints currently parked here.
  [[nodiscard]] std::size_t hinted_count() const noexcept { return hinted_.size(); }

  /// Parked state for (owner, key), or null.
  [[nodiscard]] const Stored* find_hint(ReplicaId owner, const Key& key) const {
    auto it = hinted_.find({owner, key});
    return it == hinted_.end() ? nullptr : &it->second;
  }

  /// Visits every parked hint as f(owner, key, state), in deterministic
  /// (owner, key) order.
  template <typename F>
  void for_each_hint(F&& f) const {
    for (const auto& [owner_key, stored] : hinted_) {
      f(owner_key.first, owner_key.second, stored);
    }
  }

  /// Delivers every hint whose owner is alive into `owner_lookup(owner)`
  /// (a callback returning Replica&), erasing delivered hints.  Returns
  /// the number delivered.  A dead holder delivers nothing — a crashed
  /// server cannot push writes (Cluster::deliver_hints also skips dead
  /// holders; this guard keeps direct callers honest too).
  template <typename OwnerLookup>
  std::size_t deliver_hints(const M& m, OwnerLookup&& owner_lookup) {
    if (!alive_) return 0;
    std::size_t delivered = 0;
    for (auto it = hinted_.begin(); it != hinted_.end();) {
      Replica& owner = owner_lookup(it->first.first);
      if (owner.alive()) {
        owner.merge_key(m, it->first.second, it->second);
        backend_->append(
            {store::RecordType::kHintDrop, it->first.second, it->first.first, {}});
        it = hinted_.erase(it);
        ++delivered;
      } else {
        ++it;
      }
    }
    return delivered;
  }

  /// Full codec encoding of a Stored — the bytes that cross the wire,
  /// hit the WAL, and feed the state digests.  Public so the message
  /// layer builds payloads from the exact same encoding.
  [[nodiscard]] static std::string encode_state(const Stored& s) {
    codec::Writer w;
    codec::encode(w, s);
    return std::string(reinterpret_cast<const char*>(w.buffer().data()), w.size());
  }

  /// encode_state into a caller-provided buffer.  The message path
  /// encodes payloads into pooled strings through this, so steady state
  /// mints no fresh payload allocation per send — the scratch Writer and
  /// the destination both retain capacity.
  static void encode_state_into(const Stored& s, std::string& out) {
    static thread_local codec::Writer* scratch =
        util::keep_reachable(new codec::Writer);
    scratch->clear();
    codec::encode(*scratch, s);
    out.assign(reinterpret_cast<const char*>(scratch->buffer().data()),
               scratch->size());
  }

  /// Inverse of encode_state: decodes a wire payload (a quorum-read
  /// reply the coordination engine merges, tests) back into a Stored.
  [[nodiscard]] static Stored decode_state(std::string_view bytes) {
    Stored out;
    decode_into(bytes, out);
    return out;
  }

 private:
  static void decode_into(std::string_view bytes, Stored& out) {
    codec::Reader r(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()));
    codec::decode(r, out);
    DVV_ASSERT_MSG(r.exhausted(), "storage replay: trailing bytes in record");
  }

  void persist_data(const Key& key, const Stored& s) {
    backend_->append({store::RecordType::kData, key, 0, encode_state(s)});
  }

  void touched(const Key& key) {
    if (observer_ != nullptr) observer_->on_key_touched(id_, key);
  }

  ReplicaId id_;
  bool alive_ = true;
  std::uint64_t incarnation_ = 0;  ///< survives crash(); see incarnation()
  sync::KeyObserver* observer_ = nullptr;
  std::unique_ptr<store::StorageBackend> backend_;
  /// Ordered on purpose (dvv_lint bans unordered containers here): every
  /// iteration over replica state — sync_with's merge order, crash/
  /// recover re-dirtying, footprint accounting — is part of the twin-
  /// equivalence surface, and unordered iteration order is an
  /// implementation detail of the standard library build.
  /// std::less<> so the view-based delivery path looks keys up without
  /// materializing a temporary Key (ordering is unchanged).
  std::map<Key, Stored, std::less<>> data_;
  std::map<std::pair<ReplicaId, Key>, Stored> hinted_;
};

}  // namespace dvv::kv
