// dvv/kv/config.hpp
//
// The store's geometry and wiring, shared by the templated Cluster<M>
// and the type-erased kv::Store (whose StoreConfig derives from it and
// adds only the runtime mechanism choice).  Declarations only.
#pragma once

#include <cstddef>
#include <vector>

#include "kv/types.hpp"
#include "net/transport.hpp"
#include "store/backend.hpp"

namespace dvv::kv {

struct ClusterConfig {
  std::size_t servers = 3;
  std::size_t replication = 3;
  std::size_t vnodes = 64;
  store::BackendConfig storage{};    ///< per-replica durability model
  net::TransportConfig transport{};  ///< inter-replica message layer (src/net)
  /// Elastic membership (src/membership): `capacity` replicas are
  /// PROVISIONED (processes exist, ids 0..capacity-1) but only
  /// `initial_members` are ring members at epoch 0 — the rest join
  /// later through join_node().  Defaults keep the pre-membership
  /// shape: capacity = servers, members = {0..servers-1}, and with
  /// those defaults every routing decision is byte-identical to a
  /// cluster without the subsystem.
  std::size_t capacity = 0;                  ///< 0 = servers
  std::vector<ReplicaId> initial_members{};  ///< empty = {0..servers-1}
};

}  // namespace dvv::kv
