// dvv/net/message.hpp
//
// Typed wire messages for the replication data plane.
//
// Everything that crosses between replicas — put fan-out, hinted
// handoff, hint delivery and its ack, quorum coordination — is one of
// these frames, serialized through the same codec the clock encodings
// use (codec/wire.hpp).  Anti-entropy sessions are not messages: they
// run in place and meter their cost (kv/cluster.hpp).  The
// transport layer (net/transport.hpp) carries only the encoded bytes,
// so wire-byte metering is the size of real encodings, not a modelled
// estimate, and a fault injector can drop/duplicate/reorder messages
// without knowing what they mean.
//
// Mechanism independence: the sibling-state payloads are carried as the
// key's full codec encoding (the same bytes Replica persists and ships
// today), produced and consumed by the kv layer.  The message layer
// never decodes a clock — which is what keeps one transport serving all
// six causality mechanisms.
//
// One definition per frame.  Each frame is a template over its
// byte-field type whose fields(m) ties its wire fields, once and in
// wire order; it exists in two forms:
//
//   * Message (Bytes = std::string) — the owned form senders fill;
//   * MessageView (Bytes = std::string_view) — the non-owning form every
//     transport delivers: byte fields alias the received buffer (or the
//     sender's message, on the inline loopback), and the kv layer copies
//     bytes only on adoption.
//
// XMsg and XView name the two forms of frame X.  encode, the strict
// decoder, wire_size_of, materialize and as_view are walks over the
// field list, so a layout cannot drift between them.
//
// Senders fill a Message they keep (fill_message) and lend it to
// Transport::send, which consumes it before returning.  The byte-
// faithful transports recycle encode buffers and a freelist arena for
// shared_ptr control blocks and queue nodes through the net pools (see
// README "Message path"), so the steady state allocates nothing per
// op.  Pool MISSES are observable as the net.alloc.* counters.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "codec/wire.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace dvv::net {

using NodeId = core::ActorId;

/// Put replication fan-out: merge `state` (the coordinator's post-write
/// encoding of `key`) into the destination replica.
template <typename Bytes>
struct Replicate {
  Bytes key;
  Bytes state;  ///< codec encoding of the coordinator's Stored
  static auto fields(auto& m) { return std::tie(m.key, m.state); }
};

/// Hinted handoff stash: park `state` on the destination (a fallback
/// server outside the preference list) on behalf of dead `owner`.
template <typename Bytes>
struct Hint {
  NodeId owner = 0;
  Bytes key;
  Bytes state;
  static auto fields(auto& m) { return std::tie(m.owner, m.key, m.state); }
};

/// Hint delivery: a fallback holder pushes a parked write home to its
/// recovered `owner` (the destination).  The holder keeps the hint
/// parked until the ack comes back — a delivery lost in flight is
/// retried by the next deliver_hints round, never silently dropped.
template <typename Bytes>
struct HintDeliver {
  NodeId owner = 0;
  Bytes key;
  Bytes state;
  static auto fields(auto& m) { return std::tie(m.owner, m.key, m.state); }
};

/// Acknowledges a HintDeliverMsg.  `digest` is the state digest the
/// owner merged; the holder drops its parked hint only if the parked
/// bytes still match, so an ack that raced a newer re-stash of the same
/// (owner, key) cannot erase the newer write.
template <typename Bytes>
struct HintAck {
  NodeId owner = 0;
  Bytes key;
  std::uint64_t digest = 0;
  static auto fields(auto& m) { return std::tie(m.owner, m.key, m.digest); }
};

// ---- quorum coordination (kv/coordinator.hpp) ------------------------------
//
// The client read/write path as request state machines: a coordinator
// replica scatters read/write requests to its peers and counts distinct
// replies toward an R/W quorum.  `req` is the coordinator-side request
// id (slot | generation); the engine drops late, duplicate and
// stale-generation replies, so these messages are safe to duplicate,
// reorder and delay arbitrarily.

/// Quorum-read scatter: asks the destination for its local state of
/// `key` (answered with a CoordReadRespMsg carrying the same `req`).
template <typename Bytes>
struct CoordReadReq {
  std::uint64_t req = 0;
  Bytes key;
  static auto fields(auto& m) { return std::tie(m.req, m.key); }
};

/// Quorum-read reply: the responder's full codec encoding of the key's
/// state (`found` false and empty `state` when it holds nothing).
template <typename Bytes>
struct CoordReadResp {
  std::uint64_t req = 0;
  bool found = false;
  Bytes state;
  static auto fields(auto& m) { return std::tie(m.req, m.found, m.state); }
};

/// Quorum-write fan-out: merge `state` (the coordinator's post-write
/// encoding of `key`) into the destination — a ReplicateMsg that asks
/// for an ack.
template <typename Bytes>
struct CoordWriteReq {
  std::uint64_t req = 0;
  Bytes key;
  Bytes state;
  static auto fields(auto& m) { return std::tie(m.req, m.key, m.state); }
};

/// Acknowledges a CoordWriteReqMsg: the destination applied the merge.
template <typename Bytes>
struct CoordWriteResp {
  std::uint64_t req = 0;
  static auto fields(auto& m) { return std::tie(m.req); }
};

/// The frame set over one byte-field type.  An alternative's index is
/// its wire tag.
template <typename Bytes>
using MessageOf =
    std::variant<Replicate<Bytes>, Hint<Bytes>, HintDeliver<Bytes>,
                 HintAck<Bytes>, CoordReadReq<Bytes>, CoordReadResp<Bytes>,
                 CoordWriteReq<Bytes>, CoordWriteResp<Bytes>>;

using Message = MessageOf<std::string>;
using MessageView = MessageOf<std::string_view>;

using ReplicateMsg = Replicate<std::string>;
using ReplicateView = Replicate<std::string_view>;
using HintMsg = Hint<std::string>;
using HintView = Hint<std::string_view>;
using HintDeliverMsg = HintDeliver<std::string>;
using HintDeliverView = HintDeliver<std::string_view>;
using HintAckMsg = HintAck<std::string>;
using HintAckView = HintAck<std::string_view>;
using CoordReadReqMsg = CoordReadReq<std::string>;
using CoordReadReqView = CoordReadReq<std::string_view>;
using CoordReadRespMsg = CoordReadResp<std::string>;
using CoordReadRespView = CoordReadResp<std::string_view>;
using CoordWriteReqMsg = CoordWriteReq<std::string>;
using CoordWriteReqView = CoordWriteReq<std::string_view>;
using CoordWriteRespMsg = CoordWriteResp<std::string>;
using CoordWriteRespView = CoordWriteResp<std::string_view>;

// The obs catalog's per-message-type counter axes (sent, delivered,
// decode_reject) must track the Message variant exactly; obs cannot
// include net headers, so the check lives here.
static_assert(std::variant_size_v<Message> == obs::kMessageTypes,
              "net: Message variant and obs::kMessageTypeNames diverged");

namespace detail {

template <typename T, typename... Ts>
[[nodiscard]] constexpr std::size_t variant_index_of(
    const std::variant<Ts...>*) {
  constexpr bool matches[] = {std::is_same_v<T, Ts>...};
  for (std::size_t i = 0; i < sizeof...(Ts); ++i) {
    if (matches[i]) return i;
  }
  return std::variant_npos;
}

}  // namespace detail

/// Frame `T`'s wire tag (its index in Message, or in MessageView for a
/// view), at compile time; variant_npos when T is not a frame.
template <typename T>
inline constexpr std::size_t kMessageTagOf =
    detail::variant_index_of<T>(static_cast<const Message*>(nullptr)) !=
            std::variant_npos
        ? detail::variant_index_of<T>(static_cast<const Message*>(nullptr))
        : detail::variant_index_of<T>(static_cast<const MessageView*>(nullptr));

/// One frame alternative, owned or view.
template <typename T>
concept Frame = kMessageTagOf<T> != std::variant_npos;

// ---- codec -----------------------------------------------------------------
//
// The type tag (the variant index as a varint), then the fields in
// fields(m) order.  Byte fields are length-prefixed; ids, counters and
// digests are varints; a bool is the varint 0 or 1 — the exact framing
// the clock codecs use.
//
// Decoding is STRICT — the message layer is the first thing a socket
// front-end will point at hostile bytes, so the decode path follows the
// token.hpp contract: bounds-checked, linear in the received bytes
// (length claims are capped against the remaining input before any
// allocation), canonical-form-only (non-minimal varints and bools
// outside {0,1} are rejected), and a failure is a status return, never
// an assert.  Successful decode of a full frame therefore implies
// encode reproduces the input byte-for-byte — the round-trip property
// the wire fuzzer pins.  There is ONE parser, into views; the owned
// decode is that parser plus materialize().

namespace detail {

/// Calls `f` on each of `m`'s wire fields in wire order, stopping at the
/// first call that returns false; true when none did.
template <typename T, typename F>
constexpr bool each_field(T& m, F&& f) {
  return std::apply([&](auto&... field) { return (f(field) && ...); },
                    std::remove_const_t<T>::fields(m));
}

/// A codec::Writer stand-in that only counts: sizing is the encode walk
/// with the bytes left out, so a size cannot disagree with an encoding.
struct SizeCounter {
  std::size_t n = 0;
  void varint(std::uint64_t v) { n += codec::varint_size(v); }
  void bytes(std::string_view v) {
    n += codec::varint_size(v.size()) + v.size();
  }
};

template <typename W>
void put_field(W& w, std::uint64_t v) {
  w.varint(v);
}
template <typename W>
void put_field(W& w, bool v) {
  w.varint(v ? 1 : 0);
}
template <typename W>
void put_field(W& w, std::string_view v) {
  w.bytes(v);
}

[[nodiscard]] inline bool take_field(codec::StrictReader& r, std::uint64_t& v) {
  return r.varint(v);
}
[[nodiscard]] inline bool take_field(codec::StrictReader& r, bool& v) {
  std::uint64_t raw = 0;
  if (!r.varint(raw) || raw > 1) return false;  // canonical bool
  v = raw != 0;
  return true;
}
[[nodiscard]] inline bool take_field(codec::StrictReader& r,
                                     std::string_view& v) {
  return r.bytes_view(v);
}

/// Strict decode of alternative I's fields into `out`.
template <std::size_t I>
[[nodiscard]] bool take_frame(codec::StrictReader& r, MessageView& out) {
  return each_field(out.emplace<I>(),
                    [&r](auto& field) { return take_field(r, field); });
}

using FrameDecoder = bool (*)(codec::StrictReader&, MessageView&);

template <std::size_t... I>
[[nodiscard]] constexpr auto frame_decoders(std::index_sequence<I...>) {
  return std::array<FrameDecoder, sizeof...(I)>{&take_frame<I>...};
}

/// take_frame, indexed by wire tag.
inline constexpr auto kFrameDecoders = frame_decoders(
    std::make_index_sequence<std::variant_size_v<MessageView>>{});

}  // namespace detail

/// Appends frame `m` (owned or view): its tag, then its fields in wire
/// order.  `w` is a codec::Writer (or the sizing walk's counter).
template <typename W, Frame T>
void encode(W& w, const T& m) {
  w.varint(kMessageTagOf<T>);
  detail::each_field(m, [&w](const auto& field) {
    detail::put_field(w, field);
    return true;
  });
}

/// Appends `msg`, a Message or a MessageView (a view decoded from a
/// frame re-encodes to exactly that frame).
template <typename W, typename... Ts>
void encode(W& w, const std::variant<Ts...>& msg) {
  std::visit([&w](const auto& m) { encode(w, m); }, msg);
}

/// Strict decode of one message from `r`, into non-owning views over
/// the input buffer.  Returns nullopt on any malformation, leaving `r`
/// mid-buffer.  When `tag_out` is non-null it receives the claimed
/// variant index if one was readable and in range (rejection taxonomy
/// for the decode_reject counters), else SIZE_MAX.
[[nodiscard]] inline std::optional<MessageView> try_decode_view(
    codec::StrictReader& r, std::size_t* tag_out = nullptr) {
  if (tag_out != nullptr) *tag_out = SIZE_MAX;
  std::uint64_t tag = 0;
  if (!r.varint(tag)) return std::nullopt;
  if (tag >= std::variant_size_v<MessageView>) return std::nullopt;
  if (tag_out != nullptr) *tag_out = static_cast<std::size_t>(tag);
  MessageView view;
  if (!detail::kFrameDecoders[tag](r, view)) return std::nullopt;
  return view;
}

namespace detail {

template <typename T>
void convert_field(T& to, const T& from) {
  to = from;
}
inline void convert_field(std::string& to, std::string_view from) {
  to.assign(from);
}
inline void convert_field(std::string_view& to, const std::string& from) {
  to = from;
}

/// `from` as frame `To` — the same frame over the other byte-field
/// type — converted field by field.
template <typename To, typename From>
[[nodiscard]] To convert_frame(const From& from) {
  To to;
  const auto to_fields = To::fields(to);
  const auto from_fields = From::fields(from);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (convert_field(std::get<I>(to_fields), std::get<I>(from_fields)), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(to_fields)>>{});
  return to;
}

}  // namespace detail

/// Owned message from a decoded view: copies every viewed byte range
/// into fresh strings — where the zero-copy path materializes.
[[nodiscard]] inline Message materialize(const MessageView& view) {
  return std::visit(
      [](const auto& v) -> Message {
        constexpr std::size_t tag = kMessageTagOf<std::decay_t<decltype(v)>>;
        using Owned = std::variant_alternative_t<tag, Message>;
        return Message(std::in_place_index<tag>,
                       detail::convert_frame<Owned>(v));
      },
      view);
}

/// Non-owning view of an owned message: byte fields alias `msg`'s own
/// strings (valid while `msg` lives unmodified).
[[nodiscard]] inline MessageView as_view(const Message& msg) {
  return std::visit(
      [](const auto& m) -> MessageView {
        constexpr std::size_t tag = kMessageTagOf<std::decay_t<decltype(m)>>;
        using View = std::variant_alternative_t<tag, MessageView>;
        return MessageView(std::in_place_index<tag>,
                           detail::convert_frame<View>(m));
      },
      msg);
}

/// Strict decode of a full transport payload into an OWNED message: one
/// message consuming every byte.  Trailing bytes, truncation, unknown
/// tags and non-canonical encodings all return nullopt.  `tag_out` as
/// in try_decode_view.
[[nodiscard]] inline std::optional<Message> try_decode_from_bytes(
    std::string_view bytes, std::size_t* tag_out = nullptr) {
  codec::StrictReader r(bytes.data(), bytes.size());
  std::optional<MessageView> view = try_decode_view(r, tag_out);
  if (!view.has_value() || !r.done()) return std::nullopt;
  return materialize(*view);
}

/// Exact codec size of frame `m` (either form), computed without
/// building the bytes.  Fan-out senders that just filled a typed slot
/// use this to compute the size_hint they pass along with the message,
/// so the transport never re-walks the variant (SimTransport asserts
/// the hint against the real encoding).
template <Frame T>
[[nodiscard]] std::size_t wire_size_of(const T& m) {
  detail::SizeCounter counter;
  encode(counter, m);
  return counter.n;
}

/// Exact size of `msg`'s (a Message or MessageView) codec encoding.
/// Envelopes are metered with this where no encoded frame exists: the
/// inline loopback charges the same wire bytes the byte-faithful
/// transports pay for real.
template <typename... Ts>
[[nodiscard]] std::size_t wire_size(const std::variant<Ts...>& msg) {
  return std::visit([](const auto& m) { return wire_size_of(m); }, msg);
}

/// Encodes `msg` into `out` via a persistent scratch writer: once both
/// are warm (capacity >= frame size) this allocates nothing.
inline void encode_into(const Message& msg, std::string& out) {
  // Leaky thread_local scratch: shared_ptr releases during static
  // destruction must never race a destroyed writer.
  static thread_local codec::Writer* scratch =
      util::keep_reachable(new codec::Writer);
  scratch->clear();
  encode(*scratch, msg);
  out.assign(reinterpret_cast<const char*>(scratch->buffer().data()),
             scratch->size());
}

/// Encodes `msg` — one frame, a Message or a MessageView — to the byte
/// string a Transport carries.
template <typename M>
[[nodiscard]] std::string encode_to_bytes(const M& msg) {
  codec::Writer w;
  encode(w, msg);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()), w.size());
}

/// Decodes a payload the process framed itself (tests, loopback
/// round-trips): same strict parse, but failure asserts — on bytes of
/// local provenance a malformed frame is a bug, not an input error.
/// Bytes of foreign provenance go through decode_or_reject instead.
[[nodiscard]] inline Message decode_from_bytes(const std::string& bytes) {
  std::optional<Message> msg = try_decode_from_bytes(bytes);
  DVV_ASSERT_MSG(msg.has_value(), "net: malformed self-framed message");
  return *std::move(msg);
}

/// Rejection accounting shared by the untrusted-boundary decoders:
/// bumps net.decode_reject plus the per-type taxonomy counter
/// (net.decode_reject.<type> when a plausible type tag was readable,
/// net.decode_reject.unknown otherwise).
inline void note_decode_reject(std::size_t tag) {
  obs::NetMetrics& m = obs::net_metrics();
  m.decode_reject.inc();
  if (tag < obs::kMessageTypes) {
    m.decode_reject_by_type[tag].inc();
  } else {
    m.decode_reject_unknown.inc();
  }
}

/// The untrusted-boundary entry point: strict decode plus rejection
/// accounting.  On failure bumps the decode_reject taxonomy and returns
/// nullopt — the caller drops the frame; no malformed input can abort.
[[nodiscard]] inline std::optional<Message> decode_or_reject(
    std::string_view bytes) {
  std::size_t tag = SIZE_MAX;
  std::optional<Message> msg = try_decode_from_bytes(bytes, &tag);
  if (!msg.has_value()) note_decode_reject(tag);
  return msg;
}

/// Zero-copy untrusted-boundary decode: views over `bytes` (which must
/// outlive the returned view), same strictness and rejection accounting
/// as decode_or_reject.
[[nodiscard]] inline std::optional<MessageView> decode_view_or_reject(
    std::string_view bytes) {
  std::size_t tag = SIZE_MAX;
  codec::StrictReader r(bytes.data(), bytes.size());
  std::optional<MessageView> view = try_decode_view(r, &tag);
  if (view.has_value() && r.done()) return view;
  note_decode_reject(tag);
  return std::nullopt;
}

// ---- message slots and pooled encode buffers -------------------------------
//
// The net pools: recycled encode buffers and a freelist arena for the
// shared_ptr control blocks and SimTransport queue nodes the standard
// library would otherwise heap-allocate per message.  Everything is
// thread_local and leaked on purpose: a shared_ptr released during
// static destruction must find its pool alive.
//
// Pool misses surface as net.alloc.{encode_buffers,envelopes}.

struct NetPools {
  util::FreelistArena arena;
  util::RecyclePool<std::string> buffers;

  NetPools() {
    arena.set_miss_hook([] { obs::net_metrics().alloc_envelopes.inc(); });
    buffers.set_miss_hook([] { obs::net_metrics().alloc_encode_buffers.inc(); });
  }
};

[[nodiscard]] inline NetPools& net_pools() {
  static thread_local NetPools* pools =
      util::keep_reachable(new NetPools);  // leaked by design
  return *pools;
}

struct BufferRecycler {
  void operator()(const std::string* p) const noexcept {
    net_pools().buffers.release(const_cast<std::string*>(p));
  }
};

/// Fills a caller-kept Message slot with alternative T in place and
/// returns it for Transport::send.  Alternative-affine: a
/// same-alternative refill assigns fields onto the previous occupant,
/// so string capacity is reused and a warm slot allocates nothing.
template <typename T, typename Fill>
const Message& fill_message(Message& slot, Fill&& fill) {
  if (!std::holds_alternative<T>(slot)) slot.emplace<T>();
  fill(std::get<T>(slot));
  return slot;
}

/// A recycled encode buffer (cleared, capacity retained) with an
/// arena-backed control block.  SimTransport's wire bytes live in
/// these; duplicates share one buffer by sharing the handle.
[[nodiscard]] inline std::shared_ptr<std::string> pooled_buffer() {
  NetPools& pools = net_pools();
  std::string* s = pools.buffers.acquire();
  s->clear();
  return std::shared_ptr<std::string>(s, BufferRecycler{},
                                      util::ArenaAllocator<std::string>(&pools.arena));
}

}  // namespace dvv::net
