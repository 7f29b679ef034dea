// dvv/codec/wire.hpp
//
// Minimal binary wire format: LEB128 varints plus length-prefixed bytes.
//
// The paper's Riak evaluation reports "a significant reduction in the
// size of metadata"; reproducing that claim honestly means measuring
// *serialized* clocks, not sizeof(struct).  Varint encoding is what
// production stores use for counters (protobuf-style), so entry count
// and counter magnitude both show up in the byte sizes the benches
// report — exactly the two quantities the mechanisms differ on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace dvv::codec {

/// Append-only byte sink.
class Writer {
 public:
  /// LEB128 unsigned varint: 7 bits per byte, high bit = continuation.
  void varint(std::uint64_t value) {
    while (value >= 0x80) {
      bytes_.push_back(static_cast<std::byte>((value & 0x7f) | 0x80));
      value >>= 7;
    }
    bytes_.push_back(static_cast<std::byte>(value));
  }

  /// Length-prefixed byte string.
  void bytes(std::string_view data) {
    varint(data.size());
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    bytes_.insert(bytes_.end(), p, p + data.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept { return bytes_; }

  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Sequential reader over an encoded buffer.  Decoding failures assert:
/// this class is ONLY for buffers the process itself produced, where a
/// malformed buffer is a bug, not an input error.  Anything that reads
/// bytes of foreign provenance (client tokens, peer frames, replayed
/// WAL segments) must use StrictReader below, whose failure mode is a
/// status return the caller can reject.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      DVV_ASSERT_MSG(pos_ < data_.size(), "codec: truncated varint");
      const auto b = static_cast<std::uint8_t>(data_[pos_++]);
      DVV_ASSERT_MSG(shift < 64, "codec: varint overflow");
      value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return value;
      shift += 7;
    }
  }

  [[nodiscard]] std::string bytes() {
    const std::uint64_t len = varint();
    DVV_ASSERT_MSG(pos_ + len <= data_.size(), "codec: truncated bytes");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Sequential STRICT reader for bytes the process did NOT produce —
/// client tokens, peer wire frames, replayed (possibly tampered) WAL
/// segments.  Where Reader asserts, every StrictReader step returns
/// false on malformation and the caller rejects the input; nothing an
/// adversary puts on the wire can reach a DVV_ASSERT through this
/// class.  The contract (the token.hpp idiom, hoisted to the codec
/// layer so every untrusted boundary shares one implementation):
///
///   * bounds-checked: no read past the received bytes;
///   * linear: work is bounded by the bytes the caller already holds —
///     a length claim is validated against the remaining input BEFORE
///     any allocation, so a forged huge claim cannot amplify;
///   * canonical varints only: redundant trailing zero-groups
///     (0x80 0x00 also encodes 0) and 64-bit overflow are rejected, so
///     a value has exactly one accepted encoding and decode→encode
///     byte-identity checks cannot be dodged at the varint level.
class StrictReader {
 public:
  explicit StrictReader(std::span<const std::byte> data) noexcept : data_(data) {}
  StrictReader(const void* data, std::size_t size) noexcept
      : data_(static_cast<const std::byte*>(data), size) {}

  [[nodiscard]] bool varint(std::uint64_t& out) noexcept {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift >= 64) return false;
      const auto b = static_cast<std::uint8_t>(data_[pos_++]);
      if (shift == 63 && (b & 0x7e) != 0) return false;  // overflow
      value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift != 0) return false;  // non-canonical padding
        out = value;
        return true;
      }
      shift += 7;
    }
  }

  /// Length-prefixed byte string.  The length claim is capped by the
  /// remaining input before `out` is touched.
  [[nodiscard]] bool bytes(std::string& out) {
    std::uint64_t len = 0;
    if (!varint(len)) return false;
    if (len > data_.size() - pos_) return false;
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_),
               static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  /// Zero-copy variant of bytes(): `out` becomes a view into the input
  /// buffer (same claim cap, no allocation).  The view is only valid
  /// while the underlying buffer lives — callers on the delivery hot
  /// path use this to decode without materializing, and copy only on
  /// adoption.
  [[nodiscard]] bool bytes_view(std::string_view& out) noexcept {
    std::uint64_t len = 0;
    if (!varint(len)) return false;
    if (len > data_.size() - pos_) return false;
    out = std::string_view(reinterpret_cast<const char*>(data_.data() + pos_),
                           static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Size of `value` as a varint, without encoding it (for size-only
/// accounting paths that want to skip buffer churn).
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

}  // namespace dvv::codec
