// dvv/server/protocol.hpp
//
// The dvvd client wire protocol: length-prefixed binary frames carrying
// GET/PUT requests whose causal context travels as the opaque
// CausalToken — the paper's client contract (get returns values + an
// opaque context, put returns the context) over a real socket.
//
// Frame layout (client -> server and server -> client are symmetric):
//
//     offset 0   u32 little-endian payload length N
//     offset 4   N bytes of payload
//
// N is validated against kMaxFrameBytes BEFORE any buffering beyond
// the 4-byte header — a forged huge length claim cannot make the
// server allocate.  N == 0 is malformed (every payload starts with an
// opcode).  A frame-level malformation (oversized claim) poisons the
// stream: the connection is closed, because after it byte alignment is
// gone.  Everything INSIDE an accepted frame is payload-level: a
// malformed payload earns an error response and the stream continues
// at the next frame boundary.
//
// Request payload (codec::StrictReader; canonical varints, strict
// length claims, no trailing bytes):
//
//     varint opcode          1 = GET, 2 = PUT, 3 = JOIN, 4 = LEAVE,
//                            5 = RING_INFO
//     varint request id      client-chosen, echoed verbatim in the
//                            response (pipelining: responses return in
//                            request order per connection, the id lets
//                            the client assert it)
//     GET:  bytes key
//     PUT:  bytes key, bytes token, bytes value, varint client id
//     JOIN/LEAVE:  varint node
//     RING_INFO:   nothing further
//
// Response payload:
//
//     varint status          ResponseStatus below
//     varint request id      echo
//     GET/kOk:  varint found, varint value count, bytes value ...,
//               bytes token
//     PUT/kOk:  varint replicated_to
//     JOIN/LEAVE/kOk:  varint epoch (post-transition)
//     RING_INFO/kOk:   varint epoch, varint member count,
//                      varint member ... (strictly ascending)
//     any error status: nothing further
//
// The decode boundary is shared with the fuzz harness
// (tests/fuzz/fuzz_server_frame.cpp): FrameDecoder + parse_request
// below are exactly what the server's connection state machine runs on
// received bytes, so the fuzzer exercises the real parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "codec/wire.hpp"
#include "kv/token.hpp"
#include "kv/types.hpp"

namespace dvv::server {

/// Hard cap on one frame's payload.  Chosen comfortably above any
/// legitimate request (keys and values are small; tokens are bounded
/// by mechanism metadata) and small enough that a malicious pipeline
/// cannot balloon a connection's buffers.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;  // 1 MiB

/// Frame header size: the u32 length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum class Opcode : std::uint8_t {
  kGet = 1,
  kPut = 2,
  // Admin plane (src/membership): membership transitions and ring
  // introspection.  Served off the shard threads by dvvd's admin loop —
  // a join/leave stops the world, which a shard thread cannot do to
  // itself.
  kJoin = 3,      ///< varint node; ok response carries the new epoch
  kLeave = 4,     ///< varint node; ok response carries the new epoch
  kRingInfo = 5,  ///< no body; ok response carries epoch + member list
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kUnavailable = 1,  ///< no alive replica could coordinate
  kBadToken = 2,     ///< token failed strict decode; state untouched
  kBadRequest = 3,   ///< payload malformed (opcode/fields/trailing)
};

/// Why a payload (or frame) was rejected — the server.decode_reject.*
/// taxonomy.  kNone means the parse succeeded.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kOversizedFrame,  ///< length claim beyond kMaxFrameBytes (stream poison)
  kBadOpcode,       ///< opcode varint malformed or unknown value
  kBadFields,       ///< a field failed its strict decode
  kTrailingBytes,   ///< payload parsed but bytes remain after the last field
};

/// A parsed request.  `token_bytes` stays raw here — token *validation*
/// happens in kv::Store (StoreStatus::kBadToken), because only the
/// store knows its mechanism; the protocol layer validates structure.
struct Request {
  Opcode opcode = Opcode::kGet;
  std::uint64_t request_id = 0;
  kv::Key key;
  std::string token_bytes;      // PUT only
  kv::Value value;              // PUT only
  std::uint64_t client_id = 0;  // PUT only
  std::uint64_t node = 0;       // JOIN/LEAVE only
};

/// Strict request parse over one frame's payload.  On failure `out` is
/// unspecified and the reason names the reject counter to bump.
[[nodiscard]] inline RejectReason parse_request(std::string_view payload,
                                                Request& out) {
  codec::StrictReader r(payload.data(), payload.size());
  std::uint64_t opcode = 0;
  if (!r.varint(opcode)) return RejectReason::kBadOpcode;
  if (opcode < static_cast<std::uint64_t>(Opcode::kGet) ||
      opcode > static_cast<std::uint64_t>(Opcode::kRingInfo)) {
    return RejectReason::kBadOpcode;
  }
  out.opcode = static_cast<Opcode>(opcode);
  if (!r.varint(out.request_id)) return RejectReason::kBadFields;
  switch (out.opcode) {
    case Opcode::kGet:
      if (!r.bytes(out.key)) return RejectReason::kBadFields;
      break;
    case Opcode::kPut:
      if (!r.bytes(out.key)) return RejectReason::kBadFields;
      if (!r.bytes(out.token_bytes)) return RejectReason::kBadFields;
      if (!r.bytes(out.value)) return RejectReason::kBadFields;
      if (!r.varint(out.client_id)) return RejectReason::kBadFields;
      break;
    case Opcode::kJoin:
    case Opcode::kLeave:
      if (!r.varint(out.node)) return RejectReason::kBadFields;
      break;
    case Opcode::kRingInfo:
      break;
  }
  if (!r.done()) return RejectReason::kTrailingBytes;
  return RejectReason::kNone;
}

// ---- encoding --------------------------------------------------------------

inline void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

inline void append_bytes(std::string& out, std::string_view data) {
  append_varint(out, data.size());
  out.append(data.data(), data.size());
}

/// Wraps `payload` in a frame (u32-LE length prefix) appended to `out`.
inline void append_frame(std::string& out, std::string_view payload) {
  DVV_ASSERT_MSG(payload.size() <= kMaxFrameBytes,
                 "server: encoder produced an oversized frame");
  const auto n = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.append(payload.data(), payload.size());
}

inline void encode_get_request(std::string& payload, std::uint64_t request_id,
                               std::string_view key) {
  append_varint(payload, static_cast<std::uint64_t>(Opcode::kGet));
  append_varint(payload, request_id);
  append_bytes(payload, key);
}

inline void encode_put_request(std::string& payload, std::uint64_t request_id,
                               std::string_view key, std::string_view token,
                               std::string_view value,
                               std::uint64_t client_id) {
  append_varint(payload, static_cast<std::uint64_t>(Opcode::kPut));
  append_varint(payload, request_id);
  append_bytes(payload, key);
  append_bytes(payload, token);
  append_bytes(payload, value);
  append_varint(payload, client_id);
}

inline void encode_error_response(std::string& payload, ResponseStatus status,
                                  std::uint64_t request_id) {
  DVV_ASSERT(status != ResponseStatus::kOk);
  append_varint(payload, static_cast<std::uint64_t>(status));
  append_varint(payload, request_id);
}

inline void encode_get_response(std::string& payload, std::uint64_t request_id,
                                bool found,
                                const std::vector<kv::Value>& values,
                                const kv::CausalToken& token) {
  append_varint(payload, static_cast<std::uint64_t>(ResponseStatus::kOk));
  append_varint(payload, request_id);
  append_varint(payload, found ? 1 : 0);
  append_varint(payload, values.size());
  for (const kv::Value& v : values) append_bytes(payload, v);
  append_bytes(payload, token.bytes());
}

inline void encode_put_response(std::string& payload, std::uint64_t request_id,
                                std::uint64_t replicated_to) {
  append_varint(payload, static_cast<std::uint64_t>(ResponseStatus::kOk));
  append_varint(payload, request_id);
  append_varint(payload, replicated_to);
}

inline void encode_member_change_request(std::string& payload, Opcode op,
                                         std::uint64_t request_id,
                                         std::uint64_t node) {
  DVV_ASSERT(op == Opcode::kJoin || op == Opcode::kLeave);
  append_varint(payload, static_cast<std::uint64_t>(op));
  append_varint(payload, request_id);
  append_varint(payload, node);
}

inline void encode_ring_info_request(std::string& payload,
                                     std::uint64_t request_id) {
  append_varint(payload, static_cast<std::uint64_t>(Opcode::kRingInfo));
  append_varint(payload, request_id);
}

inline void encode_member_change_response(std::string& payload,
                                          std::uint64_t request_id,
                                          std::uint64_t epoch) {
  append_varint(payload, static_cast<std::uint64_t>(ResponseStatus::kOk));
  append_varint(payload, request_id);
  append_varint(payload, epoch);
}

inline void encode_ring_info_response(std::string& payload,
                                      std::uint64_t request_id,
                                      std::uint64_t epoch,
                                      const std::vector<kv::ReplicaId>& members) {
  append_varint(payload, static_cast<std::uint64_t>(ResponseStatus::kOk));
  append_varint(payload, request_id);
  append_varint(payload, epoch);
  append_varint(payload, members.size());
  for (const kv::ReplicaId m : members) append_varint(payload, m);
}

// ---- client-side response parse -------------------------------------------

/// A parsed response (the client half of the protocol; the bench and
/// the tests' client both read through this).
struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t request_id = 0;
  bool found = false;
  std::vector<kv::Value> values;
  std::string token_bytes;
  std::uint64_t replicated_to = 0;
  std::uint64_t epoch = 0;                 // JOIN/LEAVE/RING_INFO only
  std::vector<std::uint64_t> members;      // RING_INFO only
};

/// Strict response parse.  `sent` disambiguates the kOk body (the
/// client knows which opcode it sent for this request id).
[[nodiscard]] inline bool parse_response(std::string_view payload, Opcode sent,
                                         Response& out) {
  codec::StrictReader r(payload.data(), payload.size());
  std::uint64_t status = 0;
  if (!r.varint(status)) return false;
  if (status > static_cast<std::uint64_t>(ResponseStatus::kBadRequest)) {
    return false;
  }
  out.status = static_cast<ResponseStatus>(status);
  if (!r.varint(out.request_id)) return false;
  if (out.status != ResponseStatus::kOk) return r.done();
  switch (sent) {
    case Opcode::kGet: {
      std::uint64_t found = 0;
      std::uint64_t count = 0;
      if (!r.varint(found) || found > 1) return false;
      out.found = found == 1;
      if (!r.varint(count)) return false;
      if (count > r.remaining()) return false;  // claim cap before reserve
      out.values.clear();
      out.values.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        std::string v;
        if (!r.bytes(v)) return false;
        out.values.push_back(std::move(v));
      }
      if (!r.bytes(out.token_bytes)) return false;
      break;
    }
    case Opcode::kPut:
      if (!r.varint(out.replicated_to)) return false;
      break;
    case Opcode::kJoin:
    case Opcode::kLeave:
      if (!r.varint(out.epoch)) return false;
      break;
    case Opcode::kRingInfo: {
      std::uint64_t count = 0;
      if (!r.varint(out.epoch)) return false;
      if (!r.varint(count)) return false;
      if (count == 0 || count > r.remaining()) return false;
      out.members.clear();
      out.members.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t m = 0;
        if (!r.varint(m)) return false;
        // Strictly ascending: one encoding per member set.
        if (!out.members.empty() && m <= out.members.back()) return false;
        out.members.push_back(m);
      }
      break;
    }
  }
  return r.done();
}

/// Legacy spelling predating the admin opcodes.
[[nodiscard]] inline bool parse_response(std::string_view payload, bool is_get,
                                         Response& out) {
  return parse_response(payload, is_get ? Opcode::kGet : Opcode::kPut, out);
}

// ---- incremental frame extraction -----------------------------------------

/// Accumulates received bytes and yields complete frame payloads — the
/// connection state machine's read half, shared verbatim with the fuzz
/// harness.  Handles frames split across arbitrarily many reads and
/// multiple frames arriving in one read.  An oversized length claim
/// moves the decoder into a poisoned terminal state WITHOUT buffering
/// the claimed bytes; the owner must close the stream.
class FrameDecoder {
 public:
  /// Appends newly received bytes to the internal buffer.
  void feed(std::string_view data) {
    DVV_ASSERT_MSG(!poisoned_, "server: fed a poisoned frame decoder");
    buffer_.append(data.data(), data.size());
  }

  /// Extracts the next complete frame's payload into `payload`.
  /// Returns true when a frame was produced; false when more bytes are
  /// needed OR the stream is poisoned (check poisoned()).
  [[nodiscard]] bool next(std::string& payload) {
    if (poisoned_) return false;
    if (buffer_.size() - pos_ < kFrameHeaderBytes) {
      compact();
      return false;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
    const std::uint32_t n = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
    if (n == 0 || n > kMaxFrameBytes) {
      poisoned_ = true;  // byte alignment is unrecoverable past this
      return false;
    }
    if (buffer_.size() - pos_ < kFrameHeaderBytes + n) {
      compact();
      return false;
    }
    payload.assign(buffer_, pos_ + kFrameHeaderBytes, n);
    pos_ += kFrameHeaderBytes + n;
    return true;
  }

  /// True after a frame-level malformation; the stream must be closed.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

  /// Bytes buffered but not yet consumed (tests + flow-control probes).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - pos_;
  }

 private:
  /// Drops consumed bytes once they dominate the buffer, so a
  /// long-lived pipelined connection doesn't grow without bound.
  void compact() {
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
  }

  std::string buffer_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace dvv::server
