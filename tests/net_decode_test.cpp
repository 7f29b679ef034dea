// The hardened wire-decode boundary (net/message.hpp).
//
// PR 7 moved peer-frame decoding from the asserting codec::Reader to
// codec::StrictReader: malformed bytes come back std::nullopt, never an
// abort — these are the first bytes a hostile peer will control once a
// socket fronts the transport.  This suite pins the contract the fuzz
// harnesses (tests/fuzz/) explore probabilistically:
//
//   * every message type round-trips through the strict decode, and the
//     accepted form is canonical (re-encode == input, wire_size == len)
//     whether decoded owned or as the view every transport delivers;
//   * every strict prefix of a valid frame is rejected, as are trailing
//     garbage, unknown tags, non-canonical varints and non-{0,1} bools;
//   * decode_or_reject's rejection taxonomy: net.decode_reject plus the
//     per-type counter when the tag was readable, .unknown otherwise;
//   * SimTransport drops injected garbage at delivery (decode_rejected)
//     without aborting, and still delivers well-formed injected frames.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "codec/wire.hpp"
#include "net/message.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace {

using namespace dvv::net;

/// One specimen of every message type, in wire-tag order, with
/// realistic payloads.
std::vector<Message> specimens() {
  const std::string state = "\x03opaque-state-bytes";
  return {
      ReplicateMsg{"cart", state},
      HintMsg{2, "cart", state},
      HintDeliverMsg{3, "k", state},
      HintAckMsg{2, "cart", 0x1122334455667788ULL},
      CoordReadReqMsg{5, "cart"},
      CoordReadRespMsg{5, true, state},
      CoordWriteReqMsg{6, "cart", state},
      CoordWriteRespMsg{6},
  };
}

TEST(NetDecode, EveryTypeRoundTripsCanonically) {
  const std::vector<Message> all = specimens();
  ASSERT_EQ(all.size(), std::variant_size_v<Message>);
  for (std::size_t tag = 0; tag < all.size(); ++tag) {
    const Message& msg = all[tag];
    ASSERT_EQ(msg.index(), tag) << "specimens must be in wire-tag order";
    const std::string bytes = encode_to_bytes(msg);
    const std::optional<Message> decoded = try_decode_from_bytes(bytes);
    ASSERT_TRUE(decoded.has_value()) << "type index " << tag;
    EXPECT_EQ(decoded->index(), tag);
    EXPECT_EQ(encode_to_bytes(*decoded), bytes)
        << "accepted frame not canonical, type index " << tag;
    EXPECT_EQ(wire_size(*decoded), bytes.size());

    // The view every transport delivers re-encodes to the same bytes...
    dvv::codec::StrictReader r(bytes.data(), bytes.size());
    const std::optional<MessageView> view = try_decode_view(r);
    ASSERT_TRUE(view.has_value() && r.done()) << "type index " << tag;
    EXPECT_EQ(encode_to_bytes(*view), bytes) << "type index " << tag;
    EXPECT_EQ(wire_size(*view), bytes.size());

    // ...and so does the inline loopback's aliasing view, materialized.
    EXPECT_EQ(encode_to_bytes(materialize(as_view(msg))), bytes)
        << "type index " << tag;
  }
}

TEST(NetDecode, EveryStrictPrefixIsRejected) {
  // LEB128 makes valid frames prefix-free: truncating mid-varint leaves
  // a continuation bit dangling, truncating a bytes field breaks its
  // length claim, and a fully-read frame with fields missing fails the
  // field count.  No prefix may decode — a torn TCP read must never
  // alias a shorter valid message.
  for (const Message& msg : specimens()) {
    const std::string bytes = encode_to_bytes(msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(try_decode_from_bytes(bytes.substr(0, len)).has_value())
          << "type index " << msg.index() << " accepted prefix of " << len
          << "/" << bytes.size() << " bytes";
    }
  }
}

TEST(NetDecode, RejectsTrailingGarbage) {
  for (const Message& msg : specimens()) {
    const std::string bytes = encode_to_bytes(msg) + '\0';
    EXPECT_FALSE(try_decode_from_bytes(bytes).has_value())
        << "type index " << msg.index() << " accepted a trailing byte";
  }
}

TEST(NetDecode, RejectsUnknownTag) {
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x63')).has_value());
  // 0x08 is the first out-of-range tag.
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x08')).has_value());
  EXPECT_FALSE(try_decode_from_bytes(std::string(1, '\x09')).has_value());
}

TEST(NetDecode, RejectsNonCanonicalVarint) {
  // Tag 7 = CoordWriteRespMsg{req}.  [0x80 0x00] is 0 encoded with a
  // padding byte — a lenient LEB128 reader accepts it, the strict
  // decode must not (two wire forms for one value breaks canonical
  // round-trips).
  EXPECT_FALSE(
      try_decode_from_bytes(std::string("\x07\x80\x00", 3)).has_value());
  // The minimal encoding of the same frame is accepted.
  const std::optional<Message> ok =
      try_decode_from_bytes(std::string("\x07\x00", 2));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(std::holds_alternative<CoordWriteRespMsg>(*ok));
}

TEST(NetDecode, RejectsNonCanonicalBool) {
  // Tag 5 = CoordReadRespMsg{req, found, state}: found must be 0 or 1.
  EXPECT_TRUE(
      try_decode_from_bytes(std::string("\x05\x05\x01\x00", 4)).has_value());
  EXPECT_FALSE(
      try_decode_from_bytes(std::string("\x05\x05\x02\x00", 4)).has_value());
}

TEST(NetDecode, RejectsHugeLengthClaim) {
  // ReplicateMsg (tag 0) whose key claims ~4 GiB against one actual
  // byte: StrictReader caps length claims by the bytes that exist, so
  // rejection happens before any allocation.
  std::string bytes(1, '\x00');
  bytes += std::string("\xff\xff\xff\xff\x0f", 5);  // varint 0xFFFFFFFF
  bytes += 'x';
  EXPECT_FALSE(try_decode_from_bytes(bytes).has_value());
}

TEST(NetDecode, RejectTaxonomyCounters) {
  dvv::obs::Registry& reg = dvv::obs::registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);

  const auto count = [&reg](const std::string& name) {
    return reg.counter_value(name);
  };
  const std::uint64_t base_total = count("net.decode_reject");
  const std::uint64_t base_replicate = count("net.decode_reject.replicate");
  const std::uint64_t base_unknown = count("net.decode_reject.unknown");

  // Readable tag, malformed body: total + per-type counter.
  const std::string torn = encode_to_bytes(specimens()[0]).substr(0, 3);
  EXPECT_FALSE(decode_or_reject(torn).has_value());
  EXPECT_EQ(count("net.decode_reject"), base_total + 1);
  EXPECT_EQ(count("net.decode_reject.replicate"), base_replicate + 1);

  // Unreadable / out-of-range tag: total + .unknown.
  EXPECT_FALSE(decode_or_reject(std::string(1, '\x63')).has_value());
  EXPECT_FALSE(decode_or_reject(std::string()).has_value());
  EXPECT_EQ(count("net.decode_reject"), base_total + 3);
  EXPECT_EQ(count("net.decode_reject.unknown"), base_unknown + 2);

  // Tags 8 and 9 once carried the write request and its ack, tag 10 a
  // batch of length-prefixed sub-frames, and tags 11 and 12 membership
  // frames; a body that parsed under those layouts still counts as
  // .unknown, never as a frame type.
  const auto by_type_total = [&count] {
    std::uint64_t sum = 0;
    for (const char* name : dvv::obs::kMessageTypeNames) {
      sum += count(std::string("net.decode_reject.") + name);
    }
    return sum;
  };
  const std::uint64_t base_by_type = by_type_total();
  const std::string sub = encode_to_bytes(CoordWriteRespMsg{6});
  const std::string one_frame_batch =
      std::string("\x0a\x01", 2) + static_cast<char>(sub.size()) + sub;
  EXPECT_FALSE(decode_or_reject(one_frame_batch).has_value());
  EXPECT_FALSE(decode_or_reject(std::string("\x0b\x03\x03\x00\x01\x07", 6))
                   .has_value());
  EXPECT_FALSE(
      decode_or_reject(std::string("\x0c\x03\x2a\x07\x0c\x80\x20", 7))
          .has_value());
  EXPECT_FALSE(
      decode_or_reject(std::string("\x08\x06\x04\x63\x61\x72\x74\x01\x73", 9))
          .has_value());
  EXPECT_EQ(count("net.decode_reject"), base_total + 7);
  EXPECT_EQ(count("net.decode_reject.unknown"), base_unknown + 6);
  EXPECT_EQ(by_type_total(), base_by_type);

  // A clean decode bumps nothing.
  EXPECT_TRUE(decode_or_reject(encode_to_bytes(specimens()[0])).has_value());
  EXPECT_EQ(count("net.decode_reject"), base_total + 7);

  reg.set_enabled(was_enabled);
}

TEST(NetDecode, SimTransportDropsInjectedGarbageAtDelivery) {
  SimTransport transport{SimTransportConfig{}};
  std::size_t delivered = 0;
  std::size_t replicate_seen = 0;
  // SimTransport delivers one zero-copy view per envelope; the garbage
  // riding the same tick is rejected frame by frame.
  transport.set_sink([&](const Envelope& envelope) {
    ++delivered;
    if (std::holds_alternative<ReplicateView>(envelope.view)) {
      ++replicate_seen;
    }
  });

  // Garbage, a torn frame, and one well-formed frame, all injected as
  // raw bytes (the future socket's arrival path).
  transport.inject_raw(1, 2, std::string("\x80\x80\x80", 3));
  transport.inject_raw(1, 2, encode_to_bytes(specimens()[0]).substr(0, 2));
  transport.inject_raw(1, 2, encode_to_bytes(specimens()[0]));
  for (int tick = 0; tick < 8; ++tick) (void)transport.pump();

  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(replicate_seen, 1u);
  EXPECT_EQ(transport.stats().sent, 3u);
  EXPECT_EQ(transport.stats().decode_rejected, 2u);
  EXPECT_EQ(transport.stats().delivered, 1u);
}

}  // namespace
