// Deterministic fuzz sweep over the wire parsers.
//
// Not a coverage-guided fuzzer: an exhaustive small-input sweep that runs
// in CI under ASan/UBSan. For one exemplar of every frame type we check
// the round trip, then parse every truncation prefix and every single-bit
// flip of its encoding -- the parser must return a value or nullopt, never
// assert, read out of bounds, or overflow. The sweep calls what the receive
// path calls: parse_frames_into, whose frames borrow the swept bytes.
// Sealed packets get the same sweep through parse_packet_view and
// open_packet_in_place on a copy of each mutant, where every bit flip must
// be rejected (header flips change the AAD, payload flips break the MAC).
#include <gtest/gtest.h>

#include "quic/crypto.h"
#include "quic/frame.h"
#include "quic/packet.h"

namespace xlink::quic {
namespace {

std::vector<Frame> exemplar_frames() {
  AckInfo multi_range;
  multi_range.ack_delay_us = 4800;
  multi_range.ranges = {{17, 23}, {9, 12}, {2, 5}};

  AckMpFrame ack_mp;
  ack_mp.path_id = 3;
  ack_mp.info = multi_range;
  ack_mp.qoe = QoeSignal{123456, 48, 2'500'000, 30};

  NewConnectionIdFrame ncid;
  ncid.sequence = 4;
  ncid.retire_prior_to = 1;
  for (std::size_t i = 0; i < ncid.cid.size(); ++i)
    ncid.cid[i] = static_cast<std::uint8_t>(0xA0 + i);
  for (std::size_t i = 0; i < ncid.reset_token.size(); ++i)
    ncid.reset_token[i] = static_cast<std::uint8_t>(i);

  PathChallengeFrame challenge;
  challenge.data = {1, 2, 3, 4, 5, 6, 7, 8};
  PathResponseFrame response;
  response.data = challenge.data;

  RepairFrame repair;
  repair.path_id = 1;
  repair.window_id = 42;
  repair.first_pn = 336;
  repair.k = 8;
  repair.repair_count = 2;
  repair.symbol_index = 1;
  repair.payload = {0x00, 0x10, 0xAA, 0xBB, 0xCC};

  return {
      Frame{PaddingFrame{3}},
      Frame{PingFrame{}},
      Frame{AckFrame{multi_range}},
      Frame{ack_mp},
      Frame{PathStatusFrame{2, 7, PathStatusKind::kStandby}},
      Frame{QoeControlSignalsFrame{QoeSignal{999, 12, 1'000'000, 25}}},
      Frame{repair},
      Frame{CryptoFrame{64, {0xDE, 0xAD, 0xBE, 0xEF}}},
      Frame{StreamFrame{8, 4096, {1, 2, 3, 4, 5}, true}},
      Frame{MaxDataFrame{1 << 20}},
      Frame{MaxStreamDataFrame{8, 1 << 18}},
      Frame{ResetStreamFrame{8, 11, 777}},
      Frame{StopSendingFrame{8, 11}},
      Frame{ncid},
      Frame{challenge},
      Frame{response},
      Frame{HandshakeDoneFrame{}},
      Frame{ConnectionCloseFrame{42, "fuzz sweep"}},
  };
}

std::vector<std::uint8_t> encode_one(const Frame& f) {
  Writer w;
  encode_frame(f, w);
  return w.take();
}

TEST(ParserFuzz, EveryFrameTypeRoundTrips) {
  std::vector<Frame> parsed;
  for (const Frame& f : exemplar_frames()) {
    const auto wire = encode_one(f);
    parsed.clear();
    ASSERT_TRUE(parse_frames_into(wire, parsed)) << "frame index " << f.index();
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.front(), f) << "frame index " << f.index();
  }
}

TEST(ParserFuzz, TruncationAtEveryOffsetNeverCrashes) {
  std::vector<Frame> parsed;
  for (const Frame& f : exemplar_frames()) {
    const auto wire = encode_one(f);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(wire.data(), cut);
      parsed.clear();
      // A strict prefix either fails or parses to something that encodes
      // back to exactly the prefix (e.g. a shorter padding run); it must
      // never "invent" trailing bytes.
      if (parse_frames_into(prefix, parsed)) {
        Writer w;
        for (const Frame& pf : parsed) encode_frame(pf, w);
        EXPECT_EQ(w.data(),
                  std::vector<std::uint8_t>(wire.begin(), wire.begin() + cut))
            << "frame index " << f.index() << " cut " << cut;
      }
    }
  }
}

TEST(ParserFuzz, BitFlipAtEveryPositionNeverCrashes) {
  std::vector<Frame> parsed;
  for (const Frame& f : exemplar_frames()) {
    const auto wire = encode_one(f);
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      // Must not crash / overflow; the result itself is unconstrained
      // (a flip can produce a different but valid frame).
      parsed.clear();
      (void)parse_frames_into(mutated, parsed);
    }
  }
}

TEST(ParserFuzz, GarbageInputsNeverCrash) {
  // Deterministic pseudo-random garbage, plus adversarial shapes: huge
  // varint length prefixes with no data behind them.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint8_t>(x);
  };
  std::vector<Frame> parsed;
  for (int round = 0; round < 256; ++round) {
    std::vector<std::uint8_t> buf(round);
    for (auto& b : buf) b = next();
    parsed.clear();
    (void)parse_frames_into(buf, parsed);
  }
  // CRYPTO frame claiming 2^30 bytes of data it does not carry.
  const std::vector<std::uint8_t> liar = {0x06, 0x00, 0xC0, 0x00, 0x00,
                                          0x00, 0x40, 0x00, 0x00, 0x00};
  parsed.clear();
  EXPECT_FALSE(parse_frames_into(liar, parsed));
}

TEST(ParserFuzz, StreamOffsetOverflowIsRejected) {
  // STREAM with OFF|LEN, offset = kVarintMax, length = 1: final size would
  // overflow 2^62 and must be rejected, not wrapped.
  Writer w;
  w.varint(0x08 | 0x04 | 0x02);
  w.varint(5);           // stream id
  w.varint(kVarintMax);  // offset
  w.varint(1);           // length
  w.u8(0xFF);
  std::vector<Frame> parsed;
  EXPECT_FALSE(parse_frames_into(w.data(), parsed));

  Writer c;
  c.varint(0x06);        // CRYPTO
  c.varint(kVarintMax);  // offset
  c.varint(1);
  c.u8(0xFF);
  parsed.clear();
  EXPECT_FALSE(parse_frames_into(c.data(), parsed));
}

TEST(ParserFuzz, SealedPacketSurvivesTruncationAndRejectsEveryBitFlip) {
  const PacketProtection aead(0x1234'5678'9ABC'DEF0ull);
  PacketHeader header;
  header.type = PacketType::kOneRtt;
  header.dcid = {9, 9, 9, 9, 9, 9, 9, 9};
  header.cid_sequence = 2;
  header.packet_number = 41;
  const std::vector<Frame> frames = {
      Frame{StreamFrame{4, 128, {10, 20, 30, 40}, false}},
      Frame{PingFrame{}},
  };
  const net::PacketBuffer sealed = seal_packet_buffer(aead, header, frames);
  const std::vector<std::uint8_t> wire(sealed.begin(), sealed.end());

  // Sanity: the untampered packet opens, in a copy since opening decrypts
  // in place; the parsed frames view that copy.
  {
    std::vector<std::uint8_t> copy = wire;
    const auto pkt = parse_packet_view(copy);
    ASSERT_TRUE(pkt.has_value());
    const auto payload = open_packet_in_place(aead, *pkt);
    ASSERT_TRUE(payload.has_value());
    std::vector<Frame> opened;
    ASSERT_TRUE(parse_frames_into(*payload, opened));
    EXPECT_EQ(opened, frames);
  }

  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::uint8_t> prefix(wire.begin(), wire.begin() + cut);
    const auto pkt = parse_packet_view(prefix);
    if (!pkt) continue;
    // Header parsed but the ciphertext is truncated: AEAD must reject.
    EXPECT_FALSE(open_packet_in_place(aead, *pkt).has_value()) << "cut " << cut;
  }

  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto pkt = parse_packet_view(mutated);
    if (!pkt) continue;  // header flip made it unparseable: fine
    EXPECT_FALSE(open_packet_in_place(aead, *pkt).has_value())
        << "bit " << bit << " must break the AEAD tag";
  }
}

}  // namespace
}  // namespace xlink::quic
