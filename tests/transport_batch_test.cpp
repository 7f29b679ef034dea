// Batched-delivery equivalence proof for the message layer (src/net).
//
// Claim: SimTransport's per-tick batch coalescing (BatchMsg wire
// frames assembled at pump time) is REPRESENTATION-ONLY.  For every
// causality mechanism, a chaos run with batch_delivery on is
// byte-identical to its batch-off twin — same seeded faults, same
// workload — in every observable: per-put receipts, transport
// accounting (delivered is counted per sub-message), every replica's
// every key after the workload, and the digest anti-entropy fixed
// point.  The claim holds over the WAL durability backend too
// (chaos+wal), where every delivered merge also rides the log.
//
// Second half: the BatchMsg decode boundary.  A batch frame is wire
// format, not a trusted shortcut — truncated sub-frames, count
// overclaims and trailing bytes must all be rejected at delivery
// (counted, dropped, never an abort), exactly like any other hostile
// frame, while a well-formed injected batch delivers its sub-messages.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "codec/clock_codec.hpp"
#include "kv/cluster.hpp"
#include "kv/mechanism.hpp"
#include "net/message.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "store/backend.hpp"
#include "util/rng.hpp"

namespace {

using dvv::kv::Cluster;
using dvv::kv::ClusterConfig;
using dvv::kv::Key;
using dvv::kv::ReplicaId;
using dvv::net::Envelope;
using dvv::net::Message;
using dvv::net::SimTransport;
using dvv::net::SimTransportConfig;
using dvv::util::Rng;

constexpr std::size_t kServers = 6;
constexpr std::size_t kKeys = 24;
constexpr std::size_t kClients = 5;
constexpr std::size_t kOps = 400;

ClusterConfig chaos_config(std::uint64_t seed, bool batch, bool wal) {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.replication = 3;
  cfg.vnodes = 32;
  cfg.storage.kind =
      wal ? dvv::store::BackendKind::kWal : dvv::store::BackendKind::kMem;
  cfg.transport.kind = dvv::net::TransportKind::kSim;
  cfg.transport.sim = SimTransportConfig{};
  cfg.transport.sim.seed = seed ^ 0xba7c4ULL;
  cfg.transport.sim.drop_probability = 0.10;
  cfg.transport.sim.duplicate_probability = 0.15;
  cfg.transport.sim.reorder_window = 4;
  cfg.transport.sim.auto_settle = false;  // real in-flight runs to coalesce
  cfg.transport.sim.batch_delivery = batch;
  return cfg;
}

/// Everything a put reports — compared batched vs unbatched per op.
using ReceiptRow = std::tuple<ReplicaId, std::size_t, std::size_t, std::size_t,
                              std::size_t, bool, std::size_t, std::size_t>;

/// The chaos workload from the transport chaos suite: coordinated RMW
/// puts with pumps, partitions, heals and background sync sessions
/// between the operations — all drawn from seeded streams, so the
/// batched and unbatched runs face the identical schedule.
template <typename M>
std::vector<ReceiptRow> run_workload(Cluster<M>& cluster, std::uint64_t seed) {
  Rng rng(seed);
  Rng net_rng(seed ^ 0x9e37ULL);
  using Context = typename M::Context;
  std::vector<ReceiptRow> receipts;

  for (std::size_t op = 0; op < kOps; ++op) {
    const bool do_partition = net_rng.chance(0.04);
    const bool do_heal = net_rng.chance(0.10);
    const bool do_pump = net_rng.chance(0.50);
    const bool do_sync = net_rng.chance(0.08);
    const auto sync_a = static_cast<ReplicaId>(net_rng.index(kServers));
    auto sync_b = static_cast<ReplicaId>(net_rng.index(kServers - 1));
    if (sync_b >= sync_a) ++sync_b;
    const auto groups = dvv::net::random_split<ReplicaId>(net_rng, kServers);

    if (do_partition && !cluster.transport().partitioned()) {
      cluster.partition(groups, "chaos");
    } else if (do_heal && cluster.transport().partitioned()) {
      cluster.heal();
    }
    if (do_pump) cluster.pump();
    if (do_sync) (void)cluster.request_sync(sync_a, sync_b);

    const Key key = "key-" + std::to_string(rng.index(kKeys));
    const ReplicaId coordinator = cluster.preference_list(key)[0];
    const std::size_t client = rng.index(kClients);
    Context ctx{};
    if (rng.chance(0.7)) ctx = cluster.get(key, coordinator).context;
    const auto receipt =
        cluster.put(key, coordinator, dvv::kv::client_actor(client), ctx,
                    "w" + std::to_string(op), cluster.preference_list(key));
    receipts.emplace_back(receipt.coordinator, receipt.targets,
                          receipt.replicated_to, receipt.hinted,
                          receipt.unparked, receipt.degraded, receipt.acks(),
                          receipt.replication_bytes);
  }
  return receipts;
}

/// Quiesce: zero fault rates, heal, drain, digest repair.
template <typename M>
void quiesce(Cluster<M>& cluster) {
  auto* sim = dynamic_cast<SimTransport*>(&cluster.transport());
  ASSERT_NE(sim, nullptr);
  sim->set_fault_rates(0.0, 0.0, 0);
  cluster.heal();
  cluster.pump_all();
  cluster.anti_entropy_digest();
}

/// Byte-level snapshot of every replica's every key.
template <typename M>
std::map<std::pair<ReplicaId, Key>, std::string> full_state(
    Cluster<M>& cluster) {
  std::map<std::pair<ReplicaId, Key>, std::string> out;
  for (ReplicaId r = 0; r < cluster.servers(); ++r) {
    for (const Key& key : cluster.replica(r).keys()) {
      dvv::codec::Writer w;
      dvv::codec::encode(w, *cluster.replica(r).find(key));
      const auto* p = reinterpret_cast<const char*>(w.buffer().data());
      out.emplace(std::make_pair(r, key), std::string(p, w.size()));
    }
  }
  return out;
}

template <typename M>
void run_equivalence(bool wal) {
  for (const std::uint64_t seed : {11ULL, 20120716ULL}) {
    Cluster<M> batched(chaos_config(seed, /*batch=*/true, wal), {});
    Cluster<M> unbatched(chaos_config(seed, /*batch=*/false, wal), {});
    const auto batched_receipts = run_workload(batched, seed);
    const auto unbatched_receipts = run_workload(unbatched, seed);

    // Coalescing must actually have happened, and faults too.
    const auto& bs = batched.transport().stats();
    const auto& us = unbatched.transport().stats();
    ASSERT_GT(bs.dropped, 0u) << "seed " << seed;
    ASSERT_GT(bs.duplicated, 0u);

    // Receipt streams identical, op for op.
    ASSERT_EQ(batched_receipts, unbatched_receipts)
        << "batched receipts diverged (seed " << seed << ", wal=" << wal
        << ")";
    // Transport accounting identical: delivered counts per SUB-message,
    // so the batch representation leaves no numeric trace.
    EXPECT_EQ(bs.sent, us.sent);
    EXPECT_EQ(bs.delivered, us.delivered);
    EXPECT_EQ(bs.dropped, us.dropped);
    EXPECT_EQ(bs.duplicated, us.duplicated);
    EXPECT_EQ(bs.partition_dropped, us.partition_dropped);
    EXPECT_EQ(bs.wire_bytes, us.wire_bytes);

    // Mid-flight state (before any repair) already byte-identical.
    ASSERT_EQ(full_state(batched), full_state(unbatched))
        << "batched delivery changed replica state (seed " << seed
        << ", wal=" << wal << ")";

    // And the AAE fixed points coincide and are genuine fixed points.
    quiesce(batched);
    quiesce(unbatched);
    ASSERT_EQ(full_state(batched), full_state(unbatched))
        << "fixed points diverge (seed " << seed << ", wal=" << wal << ")";
    EXPECT_EQ(batched.anti_entropy_digest().stats.keys_shipped, 0u);
    EXPECT_EQ(unbatched.anti_entropy_digest().stats.keys_shipped, 0u);
  }
}

template <typename M>
class TransportBatchTest : public ::testing::Test {};

using AllMechanisms =
    ::testing::Types<dvv::kv::DvvMechanism, dvv::kv::DvvSetMechanism,
                     dvv::kv::ServerVvMechanism, dvv::kv::ClientVvMechanism,
                     dvv::kv::VveMechanism, dvv::kv::HistoryMechanism>;
TYPED_TEST_SUITE(TransportBatchTest, AllMechanisms);

TYPED_TEST(TransportBatchTest, BatchedChaosMatchesUnbatchedTwinByteForByte) {
  run_equivalence<TypeParam>(/*wal=*/false);
}

TYPED_TEST(TransportBatchTest, BatchedChaosWithWalMatchesUnbatchedTwin) {
  run_equivalence<TypeParam>(/*wal=*/true);
}

// ---- the BatchMsg decode boundary ------------------------------------------

std::string encoded_frame(const Message& msg) {
  std::string out;
  dvv::net::encode_into(msg, out);
  return out;
}

void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// A batch frame: tag, count, then `frames` each length-prefixed.
/// `count_override` lets a test overclaim; `truncate`/`trailing`
/// corrupt the tail.
std::string batch_frame(const std::vector<std::string>& frames,
                        std::uint64_t count_override, std::size_t truncate,
                        const std::string& trailing) {
  std::string out;
  append_varint(out, std::variant_size_v<Message> - 1);  // BatchMsg tag
  append_varint(out, count_override);
  for (const std::string& f : frames) {
    append_varint(out, f.size());
    out += f;
  }
  if (truncate > 0) out.resize(out.size() - truncate);
  out += trailing;
  return out;
}

Message sample_message() {
  dvv::net::ReplicateMsg msg;
  msg.key = "k";
  msg.state = "some-state-bytes";
  return msg;
}

TEST(TransportBatchDecode, MalformedBatchFramesAreRejectedRowByRow) {
  SimTransport transport{SimTransportConfig{}};
  std::size_t envelopes = 0;
  std::size_t sub_messages = 0;
  transport.set_sink([&](const Envelope& envelope) {
    ++envelopes;
    sub_messages += envelope.views.size();
  });
  const std::string sub = encoded_frame(sample_message());

  // Row 1: truncated sub-frame — the length prefix promises more bytes
  // than the frame carries.
  transport.inject_raw(1, 2, batch_frame({sub}, 1, /*truncate=*/3, {}));
  // Row 2: count overclaim — header says 3, frame carries 2.
  transport.inject_raw(1, 2, batch_frame({sub, sub}, 3, 0, {}));
  // Row 3: trailing bytes after the last sub-frame.
  transport.inject_raw(1, 2, batch_frame({sub}, 1, 0, "junk"));
  // Row 4: an empty batch overclaiming one sub-message.
  transport.inject_raw(1, 2, batch_frame({}, 1, 0, {}));
  // Control: a WELL-FORMED injected batch delivers its sub-messages.
  transport.inject_raw(1, 2, batch_frame({sub, sub}, 2, 0, {}));

  for (int tick = 0; tick < 8; ++tick) (void)transport.pump();

  EXPECT_EQ(transport.stats().decode_rejected, 4u)
      << "every malformed batch frame must be rejected";
  EXPECT_EQ(envelopes, 1u) << "only the well-formed batch may deliver";
  EXPECT_EQ(sub_messages, 2u);
  EXPECT_EQ(transport.stats().delivered, 2u)
      << "delivered counts per sub-message";
}

TEST(TransportBatchDecode, NestedBatchFramesAreRejected) {
  // A batch whose sub-frame is itself a batch: the wire format forbids
  // recursion (one level of coalescing only), so the strict decode
  // must reject the composite.
  SimTransport transport{SimTransportConfig{}};
  std::size_t envelopes = 0;
  transport.set_sink([&](const Envelope&) { ++envelopes; });
  const std::string inner =
      batch_frame({encoded_frame(sample_message())}, 1, 0, {});
  transport.inject_raw(1, 2, batch_frame({inner}, 1, 0, {}));
  for (int tick = 0; tick < 4; ++tick) (void)transport.pump();
  EXPECT_EQ(transport.stats().decode_rejected, 1u);
  EXPECT_EQ(envelopes, 0u);
}

}  // namespace
