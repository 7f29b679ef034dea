// dvv/kv/results.hpp
//
// Mechanism-independent receipt and report types shared by the
// templated Cluster<M> and the type-erased kv::Store facade.  These
// used to be nested inside Cluster<M> (and Replica<M>), which welded
// every caller that named them to one mechanism at compile time; the
// facade needs them at namespace scope so a runtime-selected store can
// hand them across the API boundary unchanged.  Cluster<M> and
// Replica<M> alias them under their historical nested names, so
// existing call sites (`Cluster<M>::DeliveryDrops`, ...) still compile.
#pragma once

#include <cstddef>

#include "sync/anti_entropy.hpp"

namespace dvv::kv {

/// Messages a cluster discarded because their destination replica was
/// not alive at delivery time (a dead process receives nothing).
struct DeliveryDrops {
  std::size_t replicate = 0;     ///< put fan-out payloads (state-bearing
                                 ///  CoordWriteReqMsg included: a dead
                                 ///  target lost a replica copy)
  std::size_t hint_stash = 0;    ///< hints headed for a dead fallback
  std::size_t hint_deliver = 0;  ///< deliveries to an owner that died again
  std::size_t hint_ack = 0;      ///< acks to a holder that died
  std::size_t coord = 0;         ///< coordination control traffic (read
                                 ///  requests/replies, write acks) to a
                                 ///  dead endpoint — the request machine
                                 ///  absorbs these as missing replies

  [[nodiscard]] std::size_t total() const noexcept {
    return replicate + hint_stash + hint_deliver + hint_ack + coord;
  }
};

/// Full digest-based repair report (Cluster::anti_entropy_digest).
struct DigestRepairReport {
  sync::SyncStats stats;
  std::size_t sessions = 0;  ///< pairwise sessions run
  std::size_t sweeps = 0;    ///< full pair sweeps until the fixed point
};

/// Aggregate metadata statistics over every key of a replica or a
/// whole cluster (experiment E5/E6).
struct Footprint {
  std::size_t keys = 0;
  std::size_t siblings = 0;
  std::size_t clock_entries = 0;
  std::size_t metadata_bytes = 0;
  std::size_t total_bytes = 0;

  void merge(const Footprint& o) noexcept {
    keys += o.keys;
    siblings += o.siblings;
    clock_entries += o.clock_entries;
    metadata_bytes += o.metadata_bytes;
    total_bytes += o.total_bytes;
  }
};

}  // namespace dvv::kv
