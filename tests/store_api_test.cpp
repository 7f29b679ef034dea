// Tests for the type-erased kv::Store facade and kv::Session
// (src/kv/store, src/kv/session): runtime mechanism selection,
// opaque-token round-trips and the values_at raw read for all six
// mechanisms, token-misuse hardening, and the
// RmwOnUnavailableReadDoesNotWrite regression.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kv/mechanism.hpp"
#include "kv/session.hpp"
#include "kv/token.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using dvv::kv::CausalToken;
using dvv::kv::Key;
using dvv::kv::MechanismId;
using dvv::kv::ReplicaId;
using dvv::kv::Session;
using dvv::kv::Store;
using dvv::kv::StoreConfig;
using dvv::kv::StoreStatus;
using dvv::workload::Trace;
using dvv::workload::WorkloadSpec;

constexpr std::size_t kServers = 5;

StoreConfig store_config() {
  StoreConfig config;
  config.servers = kServers;
  config.replication = 3;
  config.vnodes = 32;
  return config;
}

/// Full byte-level snapshot of a facade store: every replica's every
/// key, codec-encoded.
std::map<std::pair<ReplicaId, Key>, std::string> full_state(const Store& store) {
  std::map<std::pair<ReplicaId, Key>, std::string> out;
  for (ReplicaId r = 0; r < store.servers(); ++r) {
    for (const Key& key : store.keys(r)) {
      const auto bytes = store.encoded_state(r, key);
      if (!bytes.has_value()) {
        ADD_FAILURE() << "listed key " << key << " has no state at " << r;
        continue;
      }
      out.emplace(std::make_pair(r, key), *bytes);
    }
  }
  return out;
}

/// Chaotic sync-path workload: partial replication, blind writes,
/// fail/recover, hinted handoff, periodic anti-entropy.
WorkloadSpec chaotic_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 24;
  spec.clients = 6;
  spec.operations = 400;
  spec.read_before_write = 0.85;
  spec.replicate_probability = 0.6;
  spec.anti_entropy_every = 60;
  spec.value_bytes = 12;
  spec.servers = kServers;
  spec.fail_probability = 0.02;
  spec.recover_probability = 0.05;
  spec.hinted_handoff = true;
  spec.seed = seed;
  return spec;
}

/// Asynchronous-quorum workload with partitions: in-flight coordinated
/// reads/writes, tick pumps, deadline expiries.
WorkloadSpec async_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.keys = 16;
  spec.clients = 6;
  spec.operations = 300;
  spec.read_before_write = 0.8;
  spec.replicate_probability = 0.8;
  spec.value_bytes = 8;
  spec.servers = kServers;
  spec.partition_probability = 0.02;
  spec.heal_probability = 0.2;
  spec.async_quorum = true;
  spec.read_quorum = 2;
  spec.write_quorum = 2;
  spec.deadline_ticks = 12;
  spec.seed = seed;
  return spec;
}

// ---- make_store ------------------------------------------------------------

TEST(MakeStore, AllSixMechanismsConstructByName) {
  for (const std::string& name : dvv::kv::known_mechanisms()) {
    const auto store = dvv::kv::make_store(name, store_config());
    ASSERT_NE(store, nullptr) << name;
    EXPECT_EQ(store->mechanism_name(), name);
    EXPECT_EQ(dvv::kv::to_string(store->mechanism_id()), name);
    EXPECT_EQ(store->servers(), kServers);
  }
}

TEST(MakeStore, UnknownMechanismIsAnInspectableError) {
  EXPECT_EQ(dvv::kv::make_store("paxos", store_config()), nullptr);
  EXPECT_EQ(dvv::kv::make_store("DVV", store_config()), nullptr) << "names are exact";
}

TEST(MakeStore, EmptyNameSelectsProcessDefault) {
  const auto store = dvv::kv::make_store(store_config());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->mechanism_name(), dvv::kv::default_mechanism_name());
}

TEST(MakeStore, DvvMechanismEnvSelectsDefault) {
  const char* before = std::getenv("DVV_MECHANISM");
  const std::string saved = before == nullptr ? "" : before;

  ::setenv("DVV_MECHANISM", "dvvset", 1);
  EXPECT_EQ(dvv::kv::default_mechanism_name(), "dvvset");
  EXPECT_EQ(dvv::kv::make_store(store_config())->mechanism_name(), "dvvset");
  ::setenv("DVV_MECHANISM", "no-such-mechanism", 1);
  EXPECT_DEATH(dvv::kv::default_mechanism_name(), "not a known mechanism")
      << "a typo in the env (e.g. a CI matrix leg) must fail loudly, not "
         "silently run every test against the default and pass";

  if (before == nullptr) {
    ::unsetenv("DVV_MECHANISM");
  } else {
    ::setenv("DVV_MECHANISM", saved.c_str(), 1);
  }
}

// ---- per-mechanism facade properties ---------------------------------------

template <typename M>
class StoreMechanismTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(StoreMechanismTest, AllMechanisms);

/// A make_store(M::kName) store after replaying `trace` through the
/// facade replayer (nullptr only if the name were unknown).
template <typename M>
std::unique_ptr<Store> replayed_store(const Trace& trace) {
  auto store = dvv::kv::make_store(std::string(M::kName), store_config());
  if (store != nullptr) (void)dvv::workload::replay(*store, trace);
  return store;
}

/// Token round-trip property at the public layer: every token a GET
/// hands out after a seeded workload — the chaotic sync-path trace and
/// the async-quorum trace — strictly decodes for its own mechanism and
/// re-encodes to the exact same bytes (one canonical byte
/// representation per context).
TYPED_TEST(StoreMechanismTest, EveryIssuedTokenRoundTripsByteIdentically) {
  using Context = typename TypeParam::Context;
  const auto id = dvv::kv::mechanism_id_of(TypeParam::kName);
  ASSERT_TRUE(id.has_value());

  const std::pair<Trace, std::size_t> inputs[] = {
      {dvv::workload::generate_trace(chaotic_spec(9), 3), 50},
      {dvv::workload::generate_trace(async_spec(5), 3), 40},
  };
  for (const auto& [trace, min_tokens] : inputs) {
    const auto store = replayed_store<TypeParam>(trace);
    ASSERT_NE(store, nullptr);
    std::size_t tokens_checked = 0;
    for (ReplicaId r = 0; r < store->servers(); ++r) {
      if (!store->alive(r)) continue;
      for (const Key& key : store->keys(r)) {
        const auto result = store->get(key, r);
        if (!result.ok()) continue;
        Context ctx;
        ASSERT_TRUE(dvv::kv::decode_token(result.token, *id, ctx))
            << "own token must strictly decode (key " << key << ")";
        EXPECT_EQ(dvv::kv::encode_token(*id, ctx), result.token)
            << "decode -> encode must reproduce the token byte-for-byte";
        ++tokens_checked;
      }
    }
    EXPECT_GT(tokens_checked, min_tokens) << "the property must have real coverage";
  }
}

/// values_at is a raw read of replica memory: on a live replica it
/// equals what get() serves, and on a paused one — which get() refuses
/// as kUnavailable — it still returns the stored siblings.
TYPED_TEST(StoreMechanismTest, ValuesAtReadsReplicaMemoryAliveOrPaused) {
  const auto store =
      replayed_store<TypeParam>(dvv::workload::generate_trace(chaotic_spec(9), 3));
  ASSERT_NE(store, nullptr);

  std::map<std::pair<ReplicaId, Key>, std::vector<std::string>> served;
  for (ReplicaId r = 0; r < store->servers(); ++r) {
    if (!store->alive(r)) continue;
    for (const Key& key : store->keys(r)) {
      const auto got = store->get(key, r);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(store->values_at(r, key), got.values) << "key " << key << " at " << r;
      served[{r, key}] = got.values;
    }
  }
  EXPECT_GT(served.size(), 50u) << "the property must have real coverage";

  for (ReplicaId r = 0; r < store->servers(); ++r) store->set_alive(r, false);
  for (const auto& [at, values] : served) {
    const auto& [r, key] = at;
    EXPECT_EQ(store->get(key, r).status, StoreStatus::kUnavailable);
    EXPECT_EQ(store->values_at(r, key), values)
        << "a paused replica's memory stays readable (key " << key << " at " << r
        << ")";
    EXPECT_FALSE(values.empty());
  }
  EXPECT_TRUE(store->values_at(0, "no-such-key").empty());
}

// ---- token misuse hardening (satellite) ------------------------------------

/// A store with one written key, plus the valid token its GET returned.
struct Seeded {
  std::unique_ptr<Store> store;
  Key key = "k";
  CausalToken token;
};

Seeded seeded_store(const std::string& mechanism) {
  Seeded out;
  out.store = dvv::kv::make_store(mechanism, store_config());
  EXPECT_NE(out.store, nullptr);
  EXPECT_TRUE(
      out.store->put(out.key, dvv::kv::client_actor(0), CausalToken{}, "v1").ok());
  const auto got = out.store->get(out.key);
  EXPECT_TRUE(got.ok());
  out.token = got.token;
  EXPECT_FALSE(out.token.empty());
  return out;
}

/// Asserts `store` rejects `token` as kBadToken on every write path
/// without mutating ANY replica state or starting any request.
void expect_rejected_without_mutation(Store& store, const Key& key,
                                      const CausalToken& token) {
  const auto before = full_state(store);
  const auto hinted_before = store.hinted_count();

  const auto put = store.put(key, dvv::kv::client_actor(7), token, "evil");
  EXPECT_EQ(put.status, StoreStatus::kBadToken);
  EXPECT_EQ(put.receipt.targets, 0u) << "no write happened, so no receipt";

  const auto put_at = store.put_at(key, 0, dvv::kv::client_actor(7), token,
                                   "evil", store.preference_list(key));
  EXPECT_EQ(put_at.status, StoreStatus::kBadToken);

  const auto handoff =
      store.put_with_handoff(key, 0, dvv::kv::client_actor(7), token, "evil");
  EXPECT_EQ(handoff.status, StoreStatus::kBadToken);

  const auto begun =
      store.begin_write(key, 0, dvv::kv::client_actor(7), token, "evil",
                        store.preference_list(key));
  EXPECT_EQ(begun.status, StoreStatus::kBadToken);
  EXPECT_EQ(begun.id, dvv::kv::kInvalidRequestId)
      << "a rejected begin must not hand back an id that could alias a "
         "real request (the engine's first id is 0)";
  EXPECT_FALSE(store.request_open(begun.id));
  EXPECT_EQ(store.requests_in_flight(), 0u)
      << "a rejected begin_write must not open a request";

  EXPECT_EQ(full_state(store), before)
      << "a rejected token must leave every replica byte-identical";
  EXPECT_EQ(store.hinted_count(), hinted_before);
}

TEST(TokenMisuse, CrossMechanismTokenIsRejectedNotReinterpreted) {
  Seeded dvv = seeded_store("dvv");
  Seeded vve = seeded_store("vve");
  // A DVV token fed to a VVE store (and vice versa): same key, same
  // byte-string discipline, different mechanism tag.
  expect_rejected_without_mutation(*vve.store, vve.key, dvv.token);
  expect_rejected_without_mutation(*dvv.store, dvv.key, vve.token);
  // Sharing the Context TYPE does not help: a dvv token is not a
  // server-vv token even though both contexts are VersionVectors.
  Seeded svv = seeded_store("server-vv");
  expect_rejected_without_mutation(*svv.store, svv.key, dvv.token);
}

TEST(TokenMisuse, BitFlippedTokenIsRejected) {
  Seeded s = seeded_store("dvv");
  for (std::size_t i = 0; i < s.token.size(); ++i) {
    std::string bytes = s.token.bytes();
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    expect_rejected_without_mutation(*s.store, s.key,
                                     CausalToken::from_bytes(std::move(bytes)));
  }
}

TEST(TokenMisuse, TruncatedTokenIsRejected) {
  Seeded s = seeded_store("dvvset");
  // Every proper nonempty prefix must be rejected.  (The zero-length
  // truncation IS the empty token — a deliberate blind write, the
  // Riak absent-vclock semantics — so it starts at 1.)
  for (std::size_t len = 1; len < s.token.size(); ++len) {
    expect_rejected_without_mutation(
        *s.store, s.key, CausalToken::from_bytes(s.token.bytes().substr(0, len)));
  }
}

TEST(TokenMisuse, SessionRememberedTokenSurvivesBadTokenRejection) {
  Seeded s = seeded_store("dvv");
  Session session(dvv::kv::client_actor(3), *s.store);
  const auto read = session.get(s.key);
  ASSERT_TRUE(read.ok());
  const CausalToken remembered = session.token_for(s.key);
  ASSERT_FALSE(remembered.empty());

  // A corrupted copy of the session's own token is rejected...
  std::string corrupt = remembered.bytes();
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 1);
  const auto bad = s.store->put(s.key, session.id(),
                                CausalToken::from_bytes(std::move(corrupt)), "x");
  EXPECT_EQ(bad.status, StoreStatus::kBadToken);

  // ...the session's remembered token is untouched, and its next put
  // is a NORMAL contextful write (overwrites what was read — exactly
  // one sibling after), not a blind one.
  EXPECT_EQ(session.token_for(s.key), remembered);
  EXPECT_TRUE(session.put(s.key, "v2").ok());
  const auto after = session.get(s.key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.values, std::vector<std::string>{"v2"})
      << "the rejected put must not have degraded the session to blind writes";
}

// ---- session semantics (satellite) -----------------------------------------

TEST(StoreSession, RmwOnUnavailableReadDoesNotWrite) {
  const auto store = dvv::kv::make_store("dvv", store_config());
  ASSERT_NE(store, nullptr);
  Session session(dvv::kv::client_actor(0), *store);
  const Key key = "cart";
  ASSERT_TRUE(session.put(key, "v1").ok());
  ASSERT_TRUE(session.get(key).ok());

  // The whole preference list goes dark.
  for (const ReplicaId r : store->preference_list(key)) {
    store->set_alive(r, false);
  }

  bool modifier_ran = false;
  const auto receipt = session.rmw(key, [&](const std::vector<std::string>&) {
    modifier_ran = true;
    return std::string("clobber");
  });
  EXPECT_EQ(receipt.status, StoreStatus::kUnavailable);
  EXPECT_TRUE(receipt.receipt.unavailable);
  EXPECT_FALSE(modifier_ran)
      << "an unavailable read must not feed f({}) into a write";

  for (const ReplicaId r : store->preference_list(key)) {
    store->set_alive(r, true);
  }
  const auto after = session.get(key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.values, std::vector<std::string>{"v1"})
      << "no write may have happened while the key was unavailable";

  // And the session's token survived the outage: the next rmw is a
  // normal read-modify-write.
  EXPECT_TRUE(session.rmw(key, [](const std::vector<std::string>&) {
                       return std::string("v2");
                     }).ok());
  EXPECT_EQ(session.get(key).values, std::vector<std::string>{"v2"});
}

TEST(StoreSession, UnavailableReadLeavesRememberedTokenUntouched) {
  const auto store = dvv::kv::make_store("dvvset", store_config());
  ASSERT_NE(store, nullptr);
  Session session(dvv::kv::client_actor(1), *store);
  const Key key = "k";
  ASSERT_TRUE(session.put(key, "v1").ok());
  ASSERT_TRUE(session.get(key).ok());
  const CausalToken remembered = session.token_for(key);

  for (const ReplicaId r : store->preference_list(key)) {
    store->set_alive(r, false);
  }
  const auto result = session.get(key);
  EXPECT_EQ(result.status, StoreStatus::kUnavailable);
  EXPECT_TRUE(result.token.empty()) << "error replies carry no token";
  EXPECT_EQ(session.token_for(key), remembered);
}

}  // namespace
