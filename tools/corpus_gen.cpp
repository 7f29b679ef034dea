// Mints the committed fuzz seed corpus (tests/fuzz/corpus/) from REAL
// traffic: tokens a real store actually handed to clients, wire frames
// real messages actually encode to, WAL segments a real backend
// actually wrote — plus the handcrafted crashers/ set of adversarial
// inputs that every harness must reject cleanly (tests/fuzz/ replays
// all of it under ctest; see README "Correctness tooling").
//
// Deterministic by construction: fixed keys, values and client ids, no
// clocks, no randomness — regenerating the corpus into a clean tree is
// a no-op diff.  Usage: corpus_gen [corpus-dir]
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "kv/session.hpp"
#include "kv/store.hpp"
#include "net/message.hpp"
#include "server/protocol.hpp"
#include "store/crc32.hpp"
#include "store/wal_backend.hpp"
#include "util/assert.hpp"

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DVV_ASSERT_MSG(out.good(), "corpus_gen: cannot open output file");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  DVV_ASSERT_MSG(out.good(), "corpus_gen: write failed");
  std::printf("  %s (%zu bytes)\n", path.c_str(), bytes.size());
}

[[nodiscard]] std::string varint_bytes(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

/// Drives a small sibling-heavy workload through one mechanism's store
/// and returns the store (for state bytes) plus every distinct token
/// the clients saw.
struct Traffic {
  std::unique_ptr<dvv::kv::Store> store;
  std::vector<std::string> tokens;
};

[[nodiscard]] Traffic run_traffic(const std::string& mechanism) {
  Traffic t;
  t.store = dvv::kv::make_store(mechanism, {});
  DVV_ASSERT_MSG(t.store != nullptr, "corpus_gen: unknown mechanism");
  dvv::kv::Store& s = *t.store;

  const auto remember = [&t](const dvv::kv::CausalToken& token) {
    const std::string& b = token.bytes();
    for (const std::string& seen : t.tokens) {
      if (seen == b) return;
    }
    t.tokens.push_back(b);
  };

  // Two clients racing on one key (concurrent siblings), plus a second
  // key with a deeper read-modify-write chain: small and large contexts.
  (void)s.put("cart", 1, {}, "a1");  // blind write
  (void)s.put("cart", 2, {}, "b1");  // concurrent blind write -> siblings
  dvv::kv::StoreGetResult g1 = s.get("cart");
  remember(g1.token);
  (void)s.put("cart", 1, g1.token, "a2");
  dvv::kv::StoreGetResult g2 = s.get("cart");
  remember(g2.token);

  dvv::kv::Session session(7, s);
  for (int i = 0; i < 5; ++i) {
    (void)session.put("chain", "v" + std::to_string(i));
    (void)session.get("chain");
    remember(session.token_for("chain"));
  }
  return t;
}

void mint_tokens(const fs::path& dir) {
  std::printf("token corpus:\n");
  // The empty token (a blind write) is valid for every mechanism.
  write_file(dir / "empty.bin", "");
  for (const std::string& mech : dvv::kv::known_mechanisms()) {
    Traffic t = run_traffic(mech);
    std::size_t i = 0;
    for (const std::string& token : t.tokens) {
      if (token.empty()) continue;
      write_file(dir / (mech + "_" + std::to_string(i++) + ".bin"), token);
    }
  }
}

void mint_wire(const fs::path& dir) {
  std::printf("wire corpus:\n");
  // Real sibling-state payloads: what ReplicateMsg/Hint*/CoordRead
  // actually carry is a replica's full codec encoding.
  Traffic t = run_traffic("dvv");
  const std::vector<dvv::kv::ReplicaId> prefs = t.store->preference_list("cart");
  DVV_ASSERT_MSG(!prefs.empty(), "corpus_gen: empty preference list");
  const std::string state =
      t.store->encoded_state(prefs[0], "cart").value_or(std::string());
  DVV_ASSERT_MSG(!state.empty(), "corpus_gen: no replica state for cart");

  using namespace dvv::net;
  const std::vector<std::pair<const char*, Message>> msgs = {
      {"replicate", ReplicateMsg{"cart", state}},
      {"hint", HintMsg{2, "cart", state}},
      {"hint_deliver", HintDeliverMsg{2, "cart", state}},
      {"hint_ack", HintAckMsg{2, "cart", 0x1122334455667788ULL}},
      {"read_req", CoordReadReqMsg{5, "cart"}},
      {"read_resp", CoordReadRespMsg{5, true, state}},
      {"write_req", CoordWriteReqMsg{6, "cart", state}},
      {"write_resp", CoordWriteRespMsg{6}},
  };
  for (const auto& [name, msg] : msgs) {
    write_file(dir / (std::string("msg_") + name + ".bin"),
               encode_to_bytes(msg));
  }
}

void mint_wal(const fs::path& dir) {
  std::printf("wal corpus:\n");
  Traffic t = run_traffic("dvvset");
  const std::vector<dvv::kv::ReplicaId> prefs = t.store->preference_list("cart");
  const std::string state =
      t.store->encoded_state(prefs[0], "cart").value_or(std::string());

  // Small segments force rotation and compaction, so the corpus holds
  // sealed, compacted AND active segment shapes.
  dvv::store::WalConfig config;
  config.segment_bytes = 256;
  config.flush_every = 2;
  config.compact_min_segments = 2;
  config.compact_min_garbage = 0.2;
  dvv::store::WalBackend wal(config);
  for (int i = 0; i < 24; ++i) {
    const std::string key = "k" + std::to_string(i % 4);
    wal.append({dvv::store::RecordType::kData, key, 0, state});
    if (i % 5 == 0) {
      wal.append({dvv::store::RecordType::kHint,
                  key, static_cast<dvv::core::ActorId>(1 + i % 3), state});
    }
    if (i % 7 == 0) {
      wal.append({dvv::store::RecordType::kHintDrop,
                  key, static_cast<dvv::core::ActorId>(1 + i % 3), ""});
    }
  }
  wal.flush();
  std::size_t i = 0;
  for (const std::vector<std::byte>& seg : wal.raw_segments()) {
    if (seg.empty()) continue;
    write_file(dir / ("segment_" + std::to_string(i++) + ".bin"),
               std::string(reinterpret_cast<const char*>(seg.data()),
                           seg.size()));
  }
}

/// Seeds for the dvvd client-protocol harness (fuzz_server_frame).  The
/// harness consumes byte 0 as the feed-chunk size, so every seed leads
/// with one: '\0' = feed whole, k = k-byte chunks (split-handling
/// coverage starts from the seeds, not just from mutation).
void mint_server_frames(const fs::path& dir) {
  std::printf("server_frame corpus:\n");
  Traffic t = run_traffic("dvv");
  DVV_ASSERT_MSG(!t.tokens.empty(), "corpus_gen: no dvv token minted");
  const std::string& token = t.tokens.back();

  const auto framed = [](const std::string& payload) {
    std::string out;
    dvv::server::append_frame(out, payload);
    return out;
  };

  std::string get_payload;
  dvv::server::encode_get_request(get_payload, 7, "cart");
  write_file(dir / "get_request.bin", std::string(1, '\0') + framed(get_payload));

  std::string put_payload;
  dvv::server::encode_put_request(put_payload, 8, "cart", token, "a3", 1);
  write_file(dir / "put_request.bin", std::string(1, '\0') + framed(put_payload));

  std::string blind_payload;
  dvv::server::encode_put_request(blind_payload, 9, "chain", "", "v9", 7);
  write_file(dir / "put_blind.bin", std::string(1, '\0') + framed(blind_payload));

  // A pipelined stream (three frames back to back), delivered in
  // 3-byte chunks: frames split across reads are the normal case.
  write_file(dir / "pipelined_split.bin",
             std::string(1, '\x03') + framed(get_payload) +
                 framed(put_payload) + framed(get_payload));

  // Response shapes (the client parser is fuzzed too).
  const dvv::kv::StoreGetResult g = t.store->get("cart");
  std::string get_resp;
  dvv::server::encode_get_response(get_resp, 7, g.found, g.values, g.token);
  write_file(dir / "get_response.bin", std::string(1, '\0') + framed(get_resp));

  std::string put_resp;
  dvv::server::encode_put_response(put_resp, 8, 3);
  write_file(dir / "put_response.bin", std::string(1, '\0') + framed(put_resp));

  std::string err_resp;
  dvv::server::encode_error_response(
      err_resp, dvv::server::ResponseStatus::kBadToken, 8);
  write_file(dir / "error_response.bin", std::string(1, '\0') + framed(err_resp));
}

/// The deliberately-seeded crashers: adversarial inputs that MUST be
/// rejected cleanly by all harness entry points.  Each would (or
/// did) target a specific decode-path weakness; the replay runner
/// feeds crashers/ to every harness on every ctest run.
void mint_crashers(const fs::path& dir) {
  std::printf("crashers:\n");

  // Truncated varint: continuation bits forever.  Pre-hardening this
  // aborted codec::Reader-based paths ("codec: truncated varint").
  write_file(dir / "truncated_varint.bin", std::string(3, '\x80'));

  // Wire frame claiming a huge payload against 1 actual byte — the
  // length-amplification probe (StrictReader caps claims up front).
  write_file(dir / "wire_huge_length_claim.bin",
             std::string(1, '\x00') + varint_bytes(0xFFFFFFFFULL) + "x");

  // Wire frame with an unknown message tag.
  write_file(dir / "wire_unknown_tag.bin", std::string(1, '\x63'));

  // Non-canonical varint (0x80 0x00 encodes 0 with padding): accepted
  // by lenient LEB128 readers, must be rejected by strict decode or
  // the round-trip canonicality property breaks.
  write_file(dir / "wire_noncanonical_varint.bin",
             std::string("\x80\x00", 2));

  // THE seeded WAL crasher: a frame whose CRC is CORRECT over a
  // malformed payload (a bare continuation byte).  Pre-hardening,
  // recovery trusted any CRC-valid payload to the asserting reader and
  // aborted here; post-hardening it is a torn tail, rejected cleanly.
  {
    const std::string payload("\x80", 1);
    std::string frame = varint_bytes(payload.size());
    frame += varint_bytes(dvv::store::crc32(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(payload.data()), payload.size())));
    frame += payload;
    write_file(dir / "wal_valid_crc_malformed_payload.bin", frame);
  }

  // Token with a flipped CRC byte, and one with a wrong format version:
  // integrity and version gates, checked before any payload work.
  {
    Traffic t = run_traffic("vve");
    DVV_ASSERT_MSG(!t.tokens.empty() && !t.tokens.back().empty(),
                   "corpus_gen: no vve token minted");
    std::string bitflip = t.tokens.back();
    bitflip.back() = static_cast<char>(bitflip.back() ^ 0x01);
    write_file(dir / "token_crc_bitflip.bin", bitflip);

    std::string wrong_version = t.tokens.back();
    wrong_version[2] = '\x02';
    write_file(dir / "token_wrong_version.bin", wrong_version);
  }

  // dvvd frame crashers.  Each leads with the harness's chunk byte.
  {
    const auto u32le = [](std::uint32_t v) {
      std::string out;
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
      return out;
    };
    // Length claim beyond the 1 MiB frame cap: must poison the stream
    // WITHOUT allocating the claimed bytes (the amplification probe).
    write_file(dir / "server_oversized_claim.bin",
               std::string(1, '\x01') + u32le(0xFFFFFF00U) + "x");
    // Zero-length frame: no payload can hold an opcode; stream poison.
    write_file(dir / "server_zero_length_frame.bin",
               std::string(1, '\0') + u32le(0));
    // Well-formed GET payload with trailing junk inside the frame:
    // payload-level reject (kTrailingBytes), stream continues.
    {
      std::string payload;
      dvv::server::encode_get_request(payload, 7, "cart");
      payload += "junk";
      std::string frame;
      dvv::server::append_frame(frame, payload);
      write_file(dir / "server_payload_trailing_junk.bin",
                 std::string(1, '\0') + frame);
    }
    // Unknown opcode 99: payload-level reject (kBadOpcode).
    {
      std::string frame;
      dvv::server::append_frame(frame, varint_bytes(99));
      write_file(dir / "server_bad_opcode.bin", std::string(1, '\0') + frame);
    }
    // A PUT whose value-length claim exceeds the frame: field-level
    // claim cap (kBadFields), byte-split one at a time.
    {
      std::string payload = varint_bytes(2);   // opcode PUT
      payload += varint_bytes(1);              // request id
      payload += varint_bytes(1) + "k";        // key
      payload += varint_bytes(0) ;             // empty token
      payload += varint_bytes(200) + "short";  // value claim > remaining
      std::string frame;
      dvv::server::append_frame(frame, payload);
      write_file(dir / "server_value_length_overclaim.bin",
                 std::string(1, '\x01') + frame);
    }
  }

  // Token claiming ~2^64 VVE exceptions in a tiny payload: the
  // token-bomb probe (claims beyond kMaxTokenEvents rejected before
  // any allocation).  Header + payload-length + payload, CRC-sealed so
  // the claim survives the integrity gate and reaches the parser.
  {
    std::string payload = varint_bytes(1);                  // one entry
    payload += varint_bytes(9);                             // actor
    payload += varint_bytes(5);                             // base
    payload += varint_bytes(0xFFFFFFFFFFFFFFFFULL);         // ex_count claim
    std::string token("\xD7\x70\x01\x05", 4);               // magic,ver,vve
    token += varint_bytes(payload.size());
    token += payload;
    const std::uint32_t crc = dvv::store::crc32(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(token.data()), token.size()));
    for (int i = 0; i < 4; ++i) {
      token.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
    }
    write_file(dir / "token_vve_exception_bomb.bin", token);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "tests/fuzz/corpus";
  for (const char* sub : {"token", "wire", "wal", "server_frame", "crashers"}) {
    fs::create_directories(root / sub);
  }
  mint_tokens(root / "token");
  mint_wire(root / "wire");
  mint_wal(root / "wal");
  mint_server_frames(root / "server_frame");
  mint_crashers(root / "crashers");
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
