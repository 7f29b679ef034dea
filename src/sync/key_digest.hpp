// dvv/sync/key_digest.hpp
//
// Per-key state digests for the anti-entropy subsystem.
//
// A digest is a 64-bit hash of a key's *serialized* sibling state — the
// same codec encoding that crosses the wire on replication.  Two
// replicas whose stored states encode to identical bytes therefore get
// identical digests, so they can agree the key needs no repair by
// exchanging 8 bytes instead of the whole state.  The digest is
// deliberately order-sensitive (it hashes the raw encoding): replicas
// holding the same sibling *set* in different internal orders will be
// repaired into the canonical merged form, which is exactly what makes
// digest-based repair reach the same byte-level fixed point as a full
// gather-merge-scatter pass over every key.
//
// The hash is FNV-1a 64 with a splitmix64 finalizer — fast, dependency
// free, and deterministic across platforms (no pointers, no seeds).
// Collisions would make anti-entropy *skip* a genuinely divergent key;
// at 2^-64 per pair this is far below the simulation's concern, and the
// convergence property tests would surface any systematic weakness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "codec/clock_codec.hpp"
#include "codec/wire.hpp"

namespace dvv::sync {

using Digest = std::uint64_t;

/// Digest of an absent key (an empty byte range hashes to a nonzero
/// value, so "missing" needs its own sentinel).
inline constexpr Digest kMissing = 0;

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] inline Digest hash_bytes(std::span<const std::byte> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return mix64(h);
}

[[nodiscard]] inline Digest hash_string(std::string_view s) noexcept {
  return hash_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size()));
}

/// Order-sensitive combination for hash-tree interior nodes and for
/// folding (key, digest) leaf entries into a bucket hash.
[[nodiscard]] constexpr Digest combine(Digest acc, Digest next) noexcept {
  return mix64(acc ^ (next + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2)));
}

/// Digest of an already-encoded sibling state (a wire payload).  Same
/// value as state_digest of the state it encodes, including the
/// kMissing-sentinel avoidance.
[[nodiscard]] inline Digest encoded_state_digest(std::string_view bytes) noexcept {
  const Digest d = hash_string(bytes);
  return d == kMissing ? Digest{1} : d;
}

/// Mechanism-aware per-key digest: hash of the stored sibling state's
/// full codec encoding (clocks + values).  `Stored` is any sibling-set
/// kernel with a codec::encode overload — i.e. every mechanism's Stored.
template <typename Stored>
[[nodiscard]] Digest state_digest(const Stored& s) {
  codec::Writer w;
  codec::encode(w, s);
  const Digest d = hash_bytes(std::span<const std::byte>(w.buffer()));
  // Reserve the kMissing sentinel for "key absent".
  return d == kMissing ? Digest{1} : d;
}

}  // namespace dvv::sync
