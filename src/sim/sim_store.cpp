// dvv/sim/sim_store.cpp
//
// Implementation of the event-driven store simulation over the
// type-erased kv::Store facade — see sim_store.hpp for the model.
// Non-template on purpose: the mechanism is a runtime string, so this
// whole harness compiles exactly once.
#include "sim/sim_store.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "kv/token.hpp"
#include "kv/types.hpp"
#include "net/sim_transport.hpp"
#include "net/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dvv::sim {

namespace {

/// Every network leg is sampled from the default LAN model.
constexpr LatencyModel kNetwork{};

}  // namespace

SimStoreResult simulate_store(const SimStoreConfig& config) {
  kv::StoreConfig store_config;
  store_config.mechanism = config.mechanism;
  store_config.servers = config.servers;
  store_config.replication = config.replication;
  store_config.storage = config.storage;
  // Manual-pump SimTransport: fan-out and coordination traffic sit in
  // real queues until a scheduled pump delivers them — the in-flight
  // window.
  store_config.transport.kind = net::TransportKind::kSim;
  std::uint64_t transport_seed = config.seed + 0x7ea7005ULL;
  store_config.transport.sim.seed = util::splitmix64(transport_seed);
  store_config.transport.sim.drop_probability = config.msg_drop_probability;
  store_config.transport.sim.duplicate_probability =
      config.msg_duplicate_probability;
  store_config.transport.sim.reorder_window = config.msg_reorder_window;
  store_config.transport.sim.auto_settle = false;
  const std::unique_ptr<kv::Store> store_ptr = kv::make_store(store_config);
  DVV_ASSERT_MSG(store_ptr != nullptr, "simulate_store: unknown mechanism name");
  kv::Store& store = *store_ptr;

  EventQueue queue;
  util::Rng rng(config.seed);
  const util::ZipfSampler zipf(config.keys, config.zipf_skew);
  SimStoreResult result;

  auto note_in_flight = [&] {
    result.max_requests_in_flight = std::max<std::uint64_t>(
        result.max_requests_in_flight, store.requests_in_flight());
  };

  struct ClientState {
    std::size_t remaining = 0;
    kv::CausalToken token{};  ///< opaque context ferried GET -> PUT
    kv::Key key;
    SimTime cycle_start = 0.0;
    SimTime get_start = 0.0;
  };
  std::vector<ClientState> clients(config.clients);
  std::size_t live_clients = config.clients;

  // While a replica is absorbed in a background repair session its
  // foreground replies queue behind the repair work.
  std::vector<SimTime> repair_busy_until(config.servers, 0.0);
  auto server_stall = [&](kv::ReplicaId r) {
    const double stall = std::max(0.0, repair_busy_until[r] - queue.now());
    if (stall > 0.0) result.aae_stall_ms.add(stall);
    return stall;
  };

  // Client operations currently in flight: request id -> continuation
  // state.  Drained by drain_completed() after every pump (and by the
  // per-op deadline watchdogs).
  struct PendingGet {
    std::size_t client = 0;
    kv::ReplicaId source = 0;
  };
  struct PendingPut {
    std::size_t client = 0;
    kv::ReplicaId coordinator = 0;
    SimTime put_start = 0.0;
  };
  std::map<std::uint64_t, PendingGet> pending_gets;
  std::map<std::uint64_t, PendingPut> pending_puts;
  // Quorum-request completion handlers (the GET/PUT halves of the cycle
  // that resume once the coordination engine reports a terminal
  // outcome) and the completion drain, declared up front so the pump
  // hook below can call them.
  std::function<void(std::size_t, std::uint64_t, kv::ReplicaId)> finish_get;
  std::function<void(std::size_t, std::uint64_t, kv::ReplicaId, SimTime)> finish_put;
  std::function<void()> drain_completed;

  // One transport pump: delivers due queued messages (replication
  // fan-out, coordination scatter/replies, hint flows) and resumes
  // client operations whose quorum completed.
  auto pump_transport = [&] {
    store.pump();
    drain_completed();
  };

  // Forward declarations of the per-client phase functions, expressed as
  // std::functions so they can schedule one another on the queue.
  std::function<void(std::size_t)> begin_cycle, do_get, do_put;

  begin_cycle = [&](std::size_t c) {
    ClientState& st = clients[c];
    if (st.remaining == 0) {
      --live_clients;  // this client's loop is done
      return;
    }
    --st.remaining;
    queue.schedule_in(rng.exponential(config.think_ms), [&, c] { do_get(c); });
  };

  // Alive members of a preference list (crash injection can empty it).
  auto alive_of = [&](const std::vector<kv::ReplicaId>& pref) {
    std::vector<kv::ReplicaId> alive;
    for (const kv::ReplicaId r : pref) {
      if (store.alive(r)) alive.push_back(r);
    }
    return alive;
  };

  // GET: request leg to the chosen source replica, which then
  // COORDINATES a quorum read (begin_read_at, R = config.read_quorum).
  // R = 1 completes at the source's local read on the spot; R > 1 puts
  // CoordReadReqMsg scatter and replies in flight on the same faulty
  // queues as replication — finish_get resumes the cycle whenever the
  // quorum (or the deadline) lands.
  do_get = [&](std::size_t c) {
    ClientState& st = clients[c];
    st.key = "key-" + std::to_string(zipf.sample(rng));
    st.cycle_start = queue.now();
    st.get_start = queue.now();

    const auto alive = alive_of(store.preference_list(st.key));
    if (alive.empty()) {
      ++result.unavailable_requests;
      begin_cycle(c);
      return;
    }
    const kv::ReplicaId source = alive[rng.index(alive.size())];

    // Request leg (tiny: key only), then the coordinated read.
    const double request_leg = kNetwork.sample(rng, st.key.size() + 16);
    queue.schedule_in(request_leg, [&, c, source] {
      ClientState& state = clients[c];
      if (!store.alive(source)) {
        // Crashed while the request was in flight: timeout, retry later.
        ++result.unavailable_requests;
        begin_cycle(c);
        return;
      }
      kv::ReadOptions ropts;
      ropts.deadline_ticks = kNoTickDeadline;
      const std::uint64_t id =
          store.begin_read_at(state.key, source, config.read_quorum, ropts);
      note_in_flight();
      if (store.request_terminal(id)) {  // R=1: the local read sufficed
        finish_get(c, id, source);
        return;
      }
      pending_gets[id] = {c, source};
      // Scatter and reply legs for the asked peers: each schedules a
      // pump that delivers whatever is due by then.
      for (std::size_t peer = 1; peer < config.read_quorum; ++peer) {
        const double scatter_leg =
            kNetwork.sample(rng, state.key.size() + 24);
        const double reply_leg = kNetwork.sample(rng, 64);
        queue.schedule_in(scatter_leg, pump_transport);
        queue.schedule_in(scatter_leg + reply_leg, pump_transport);
      }
      // Deadline watchdog: an op still pending by now is finalized with
      // whatever replies arrived.
      queue.schedule_in(config.op_deadline_ms, [&, id] {
        if (!pending_gets.contains(id)) return;  // already resumed
        (void)store.finalize_request(id);
        drain_completed();
      });
    });
  };

  // Second half of a GET, once its request is terminal: harvest, adopt
  // the reply's opaque token, account the reply leg back to the client.
  finish_get = [&](std::size_t c, std::uint64_t id, kv::ReplicaId source) {
    const kv::StoreReadHarvest harvest = store.take_read_result(id);
    if (harvest.outcome == kv::CoordOutcome::kTimeout ||
        harvest.outcome == kv::CoordOutcome::kUnavailable) {
      ++result.op_timeouts;
    }
    if (harvest.result.unavailable()) {
      ++result.unavailable_requests;
      begin_cycle(c);
      return;
    }
    if (harvest.result.degraded) ++result.reads_degraded;
    const std::size_t reply_bytes = 16 + harvest.state_bytes;
    // The client adopts the reply's opaque causal token on arrival.
    // A replica busy with background repair serves the read late.
    const double reply_leg =
        kNetwork.sample(rng, reply_bytes) + server_stall(source);
    queue.schedule_in(reply_leg, [&, c, source, reply_bytes,
                                  token = harvest.result.token] {
      ClientState& cs = clients[c];
      if (!store.alive(source)) {
        // Crashed mid-reply: the connection drops, not the token.
        ++result.unavailable_requests;
        begin_cycle(c);
        return;
      }
      cs.token = token;
      result.get_latency_ms.add(queue.now() - cs.get_start);
      result.get_reply_bytes.add(static_cast<double>(reply_bytes));
      do_put(c);
    });
  };

  do_put = [&](std::size_t c) {
    ClientState& st = clients[c];
    const SimTime put_start = queue.now();

    // Request carries the opaque token plus the value — the token IS
    // the wire form of the context, so its size (header included) is
    // what the client actually uploads.
    const std::size_t request_bytes =
        st.key.size() + st.token.size() + config.value_bytes + 16;

    const auto pref = store.preference_list(st.key);
    const auto alive = alive_of(pref);
    if (alive.empty()) {
      ++result.unavailable_requests;
      begin_cycle(c);
      return;
    }
    const kv::ReplicaId coordinator = alive[rng.index(alive.size())];
    const std::string value =
        "c" + std::to_string(c) + "-" + std::to_string(st.remaining) +
        std::string(config.value_bytes, 'x');

    const double request_leg = kNetwork.sample(rng, request_bytes);
    queue.schedule_in(request_leg, [&, c, coordinator, pref, value, put_start] {
      ClientState& cs = clients[c];
      if (!store.alive(coordinator)) {
        // Crashed while the request was in flight: timeout, retry later.
        ++result.unavailable_requests;
        begin_cycle(c);
        return;
      }
      // The coordinator applies locally (the first ack) and the fan-out
      // is enqueued on the store's SimTransport — real messages in
      // flight that readers cannot see yet and that a crash of the
      // target (or a partition) destroys.  W=1 acks the client right
      // away; W>1 keeps the operation pending until enough
      // CoordWriteRespMsg acks ride back through the same queues.  Each
      // sampled network leg schedules a pump that delivers what is due.
      kv::WriteOptions opts;
      opts.write_quorum = config.write_quorum;
      opts.deadline_ticks = kNoTickDeadline;
      const kv::StoreWriteBegin begun =
          store.begin_write(cs.key, coordinator, kv::client_actor(c), cs.token,
                            value, pref, opts);
      // The simulator only ferries tokens the store itself minted, so a
      // rejection here would be a harness bug, not client weather.
      DVV_ASSERT_MSG(begun.ok(), "simulate_store: own token rejected");
      const std::uint64_t id = begun.id;
      note_in_flight();
      const kv::PutReceipt& receipt = store.peek_write_receipt(id);
      // Targets already dead at send time never even get a message.
      for (const kv::ReplicaId r : pref) {
        if (r != coordinator && !store.alive(r)) ++result.replication_drops;
      }
      const std::size_t replica_bytes =
          receipt.replicated_to == 0
              ? 0
              : receipt.replication_bytes / receipt.replicated_to;
      for (std::size_t i = 0; i < receipt.replicated_to; ++i) {
        const double fanout_leg = kNetwork.sample(rng, replica_bytes);
        queue.schedule_in(fanout_leg, pump_transport);
        if (config.write_quorum > 1) {
          // The ack leg back to the coordinator needs its own pump.
          queue.schedule_in(fanout_leg + kNetwork.sample(rng, 24),
                            pump_transport);
        }
      }
      if (store.request_terminal(id)) {  // W=1: the local apply sufficed
        finish_put(c, id, coordinator, put_start);
        return;
      }
      pending_puts[id] = {c, coordinator, put_start};
      queue.schedule_in(config.op_deadline_ms, [&, id] {
        if (!pending_puts.contains(id)) return;  // already resumed
        (void)store.finalize_request(id);
        drain_completed();
      });
    });
  };

  // Second half of a PUT, once its request is terminal: harvest the
  // receipt and account the ack leg back to the client (late if the
  // coordinator is busy with background repair).
  finish_put = [&](std::size_t c, std::uint64_t id, kv::ReplicaId coordinator,
                   SimTime put_start) {
    const kv::PutReceipt receipt = store.take_write_receipt(id);
    if (receipt.outcome == kv::CoordOutcome::kTimeout ||
        receipt.outcome == kv::CoordOutcome::kUnavailable) {
      ++result.op_timeouts;
    }
    if (receipt.degraded) ++result.writes_degraded;
    const double ack_leg =
        kNetwork.sample(rng, 32) + server_stall(coordinator);
    queue.schedule_in(ack_leg, [&, c, put_start] {
      ClientState& done = clients[c];
      result.put_latency_ms.add(queue.now() - put_start);
      result.cycle_latency_ms.add(queue.now() - done.cycle_start);
      ++result.cycles;
      begin_cycle(c);
    });
  };

  // Resumes every client operation whose request reached a terminal
  // outcome (quorum met, deadline expired, or finalized).
  drain_completed = [&] {
    for (const std::uint64_t id : store.take_completed_requests()) {
      if (const auto it = pending_gets.find(id); it != pending_gets.end()) {
        const PendingGet p = it->second;
        pending_gets.erase(it);
        finish_get(p.client, id, p.source);
      } else if (const auto it2 = pending_puts.find(id);
                 it2 != pending_puts.end()) {
        const PendingPut p = it2->second;
        pending_puts.erase(it2);
        finish_put(p.client, id, p.coordinator, p.put_start);
      }
      // Ids in neither map were issued and harvested synchronously.
    }
  };

  // Background anti-entropy: every tick a random replica pair runs one
  // digest session in place — none when either endpoint is down or a
  // partition cuts the pair.  The session's metered wire traffic keeps
  // both endpoints busy for its simulated duration, stalling their
  // foreground replies.  Stops rescheduling once every client loop has
  // drained so the queue can empty.
  std::function<void()> aae_tick = [&] {
    if (live_clients == 0) return;
    const std::size_t n = config.servers;
    auto a = static_cast<kv::ReplicaId>(rng.index(n));
    auto b = static_cast<kv::ReplicaId>(rng.index(n - 1));
    if (b >= a) ++b;
    if (store.alive(a) && store.alive(b) && store.transport().link_up(a, b)) {
      const sync::SyncStats stats = store.anti_entropy_digest_pair(a, b);
      ++result.aae_sessions;
      result.aae_stats.merge(stats);
      result.aae_session_bytes.add(static_cast<double>(stats.wire_bytes));
      const double duration =
          static_cast<double>(stats.rounds) * kNetwork.base_ms +
          static_cast<double>(stats.wire_bytes) *
              (1.0 / kNetwork.bandwidth_bytes_per_ms +
               kNetwork.cpu_ms_per_byte);
      const SimTime busy = queue.now() + duration;
      repair_busy_until[a] = std::max(repair_busy_until[a], busy);
      repair_busy_until[b] = std::max(repair_busy_until[b], busy);
    }
    queue.schedule_in(config.aae_interval_ms, aae_tick);
  };
  if (config.aae_interval_ms > 0.0) {
    queue.schedule_in(config.aae_interval_ms, aae_tick);
  }

  // Partition storms: cut the ring into two random groups, heal after
  // the configured duration.  In-flight messages crossing the cut are
  // lost at delivery time; divergence repairs through background AAE.
  std::function<void()> partition_tick = [&] {
    if (live_clients == 0) return;
    if (!store.transport().partitioned() && config.servers >= 2) {
      store.partition(net::random_split<kv::ReplicaId>(rng, config.servers),
                      "storm");
      ++result.partitions;
      queue.schedule_in(config.partition_duration_ms, [&] {
        store.heal();
        ++result.heals;
      });
    }
    queue.schedule_in(rng.exponential(config.partition_interval_ms),
                      partition_tick);
  };
  if (config.partition_interval_ms > 0.0) {
    queue.schedule_in(rng.exponential(config.partition_interval_ms),
                      partition_tick);
  }

  // Crash injection: a random alive replica truly crashes (volatile
  // state and un-flushed log tail gone, possibly with a torn trailing
  // write) and recovers after the configured downtime by replaying its
  // log — which keeps it busy the way background repair does.
  std::function<void()> crash_tick = [&] {
    if (live_clients == 0) return;
    std::vector<kv::ReplicaId> alive;
    for (kv::ReplicaId r = 0; r < config.servers; ++r) {
      if (store.alive(r)) alive.push_back(r);
    }
    // Keep a majority up so most preference lists stay available.
    if (alive.size() >= config.replication) {
      const kv::ReplicaId victim = alive[rng.index(alive.size())];
      const std::size_t torn = rng.chance(config.torn_write_probability)
                                   ? 1 + rng.index(32)
                                   : 0;
      store.crash(victim, torn);
      ++result.crashes;
      queue.schedule_in(config.crash_downtime_ms, [&, victim] {
        const store::RecoveryStats replay = store.recover(victim);
        ++result.recoveries;
        result.wal_records_replayed += replay.records_replayed;
        result.wal_torn_records += replay.torn_records_dropped;
        // Log replay occupies the server like repair traffic does:
        // sequential read + decode of the surviving records.
        const double replay_ms =
            static_cast<double>(replay.bytes_replayed) *
            (1.0 / kNetwork.bandwidth_bytes_per_ms +
             kNetwork.cpu_ms_per_byte);
        repair_busy_until[victim] =
            std::max(repair_busy_until[victim], queue.now() + replay_ms);
      });
    }
    queue.schedule_in(rng.exponential(config.crash_interval_ms), crash_tick);
  };
  if (config.crash_interval_ms > 0.0) {
    queue.schedule_in(rng.exponential(config.crash_interval_ms), crash_tick);
  }

  for (std::size_t c = 0; c < config.clients; ++c) {
    clients[c].remaining = config.ops_per_client;
    begin_cycle(c);
  }
  queue.run();
  // Drain whatever is still in flight (fan-out whose pump landed before
  // its due tick, duplicate copies).
  while (!store.transport().idle()) pump_transport();

  result.sim_duration_ms = queue.now();
  result.replication_drops += store.delivery_drops().replicate;

  const net::TransportStats& net_stats = store.transport().stats();
  result.messages_sent = net_stats.sent;
  result.messages_delivered = net_stats.delivered;
  result.messages_dropped = net_stats.dropped;
  result.messages_duplicated = net_stats.duplicated;
  result.partition_drops = net_stats.partition_dropped;
  const kv::CoordStats& coord_stats = store.coord_stats();
  result.late_replies_dropped = coord_stats.late_replies_dropped;
  result.duplicate_replies_dropped = coord_stats.duplicate_replies_dropped;
  result.stale_replies_dropped = coord_stats.stale_replies_dropped;
  return result;
}

}  // namespace dvv::sim
