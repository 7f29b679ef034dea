#include "workload/trace.hpp"

#include <string>

#include "net/transport.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dvv::workload {

Trace generate_trace(const WorkloadSpec& spec, std::size_t replication) {
  DVV_ASSERT(spec.keys >= 1);
  DVV_ASSERT(spec.clients >= 1);
  DVV_ASSERT(replication >= 1);

  util::Rng rng(spec.seed);
  const util::ZipfSampler zipf(spec.keys, spec.zipf_skew);

  Trace trace;
  trace.seed = spec.seed;
  trace.hinted_handoff = spec.hinted_handoff;
  trace.crash_faults = spec.crash_faults;
  trace.async_quorum = spec.async_quorum;
  trace.read_quorum = spec.read_quorum;
  trace.write_quorum = spec.write_quorum;
  trace.deadline_ticks = spec.deadline_ticks;
  trace.ops.reserve(spec.operations * 2 + spec.operations / 16);

  // Blind writes are issued by FRESH anonymous client identities (one
  // per blind write, ids spec.clients, spec.clients+1, ...).  This
  // models the workload that historically blew up Riak's per-client
  // vclocks — short-lived clients that write once without reading — and
  // it keeps the causality model uniform: a blind write is concurrent
  // with everything, including any earlier write that happened to come
  // from the same TCP client, because it carries no context at all.
  std::size_t next_anonymous = spec.clients;

  // Failure-injection state: which servers are currently down.
  const bool inject_failures =
      spec.fail_probability > 0.0 || spec.recover_probability > 0.0;
  DVV_ASSERT_MSG(!inject_failures || spec.servers >= replication,
                 "failure injection needs spec.servers set");
  std::vector<bool> down(inject_failures ? spec.servers : 0, false);
  std::size_t down_count = 0;

  // Partition-injection state: at most one split active at a time.
  const bool inject_partitions = spec.partition_probability > 0.0;
  DVV_ASSERT_MSG(!inject_partitions || spec.servers >= 2,
                 "partition injection needs spec.servers >= 2");
  bool partitioned = false;

  std::uint64_t write_seq = 0;
  for (std::size_t op = 0; op < spec.operations; ++op) {
    if (spec.anti_entropy_every != 0 && op != 0 &&
        op % spec.anti_entropy_every == 0) {
      TraceOp ae;
      ae.kind = TraceOp::Kind::kAntiEntropy;
      trace.ops.push_back(std::move(ae));
    }

    if (inject_failures) {
      // Crash one alive server (keeping at least servers-(R-1) alive so
      // every preference list retains an alive member).
      if (down_count + 1 < replication && rng.chance(spec.fail_probability)) {
        std::size_t victim = rng.index(spec.servers);
        while (down[victim]) victim = rng.index(spec.servers);
        down[victim] = true;
        ++down_count;
        TraceOp fail;
        fail.kind = TraceOp::Kind::kFail;
        fail.server = victim;
        trace.ops.push_back(std::move(fail));
      }
      if (down_count > 0 && rng.chance(spec.recover_probability)) {
        std::size_t lucky = rng.index(spec.servers);
        while (!down[lucky]) lucky = rng.index(spec.servers);
        down[lucky] = false;
        --down_count;
        TraceOp recover;
        recover.kind = TraceOp::Kind::kRecover;
        recover.server = lucky;
        trace.ops.push_back(std::move(recover));
      }
    }

    if (inject_partitions) {
      // Cut the cluster into two random groups, or heal the active cut.
      // Decided before the op so a write can land inside either side.
      if (!partitioned && rng.chance(spec.partition_probability)) {
        TraceOp split;
        split.kind = TraceOp::Kind::kPartition;
        split.groups = net::random_split<std::size_t>(rng, spec.servers);
        trace.ops.push_back(std::move(split));
        partitioned = true;
      } else if (partitioned && rng.chance(spec.heal_probability)) {
        TraceOp heal;
        heal.kind = TraceOp::Kind::kHeal;
        trace.ops.push_back(std::move(heal));
        partitioned = false;
      }
    }

    if (spec.async_quorum && rng.chance(spec.tick_probability)) {
      // One pump of network time between client operations: in-flight
      // scatter, replies and fan-out land (or expire) here, so async
      // replays interleave deliveries WITH the op stream instead of
      // quiescing after every op.
      TraceOp tick;
      tick.kind = TraceOp::Kind::kTick;
      trace.ops.push_back(std::move(tick));
    }

    kv::Key key = "key-" + std::to_string(zipf.sample(rng));
    const std::size_t rank = rng.index(replication);  // coordinating slot

    const bool rmw = rng.chance(spec.read_before_write);
    const std::size_t client = rmw ? rng.index(spec.clients) : next_anonymous++;
    if (rmw) {
      TraceOp get;
      get.kind = TraceOp::Kind::kGet;
      get.client = client;
      get.key = key;
      get.rank = rank;
      trace.ops.push_back(std::move(get));
    }

    TraceOp put;
    put.kind = TraceOp::Kind::kPut;
    put.client = client;
    put.key = std::move(key);
    put.rank = rank;
    put.blind = !rmw;
    for (std::size_t r = 0; r < replication; ++r) {
      if (r == rank) continue;  // the coordinator always has the write
      if (rng.chance(spec.replicate_probability)) put.replicate_ranks.push_back(r);
    }
    // Unique, self-describing payload padded to the requested size:
    // uniqueness is what lets the oracle match values across mechanisms.
    put.value = "w" + std::to_string(write_seq++);
    if (put.value.size() < spec.value_bytes) {
      put.value.append(spec.value_bytes - put.value.size(), 'x');
    }
    trace.ops.push_back(std::move(put));
  }
  if (partitioned) {
    // Leave no split behind: replays (and the oracle's convergence
    // phase) expect the final anti-entropy rounds to reach everyone.
    TraceOp heal;
    heal.kind = TraceOp::Kind::kHeal;
    trace.ops.push_back(std::move(heal));
  }
  trace.clients = next_anonymous;  // named sessions + anonymous writers
  return trace;
}

}  // namespace dvv::workload
