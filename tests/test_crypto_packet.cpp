// Unit tests: packet protection, multipath nonce construction, and packet
// header encoding.
#include <gtest/gtest.h>

#include "quic/crypto.h"
#include "quic/packet.h"

namespace xlink::quic {
namespace {

/// ciphertext || tag of `plaintext`, sealed in place in a fresh buffer the
/// way the send path seals a packet's payload.
std::vector<std::uint8_t> sealed(const PacketProtection& aead,
                                 std::uint32_t path, PacketNumber pn,
                                 std::span<const std::uint8_t> aad,
                                 std::span<const std::uint8_t> plaintext) {
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  buf.resize(plaintext.size() + kAeadTagSize);
  aead.seal_in_place(path, pn, aad, buf.data(), plaintext.size());
  return buf;
}

TEST(Nonce, DraftLayout) {
  // 32-bit CID sequence number, 2 zero bits, 62-bit packet number.
  const Nonce n = build_multipath_nonce(0x01020304, 0x0506070805060708ULL);
  EXPECT_EQ(n[0], 0x01);
  EXPECT_EQ(n[1], 0x02);
  EXPECT_EQ(n[2], 0x03);
  EXPECT_EQ(n[3], 0x04);
  // Top two bits of the packet number field must be zero.
  EXPECT_EQ(n[4] & 0xc0, 0x04 & 0xc0);
  EXPECT_EQ(build_multipath_nonce(0, ~PacketNumber{0})[4], 0x3f);
  // Packet number occupies the low 62 bits in network byte order.
  const Nonce small = build_multipath_nonce(0, 1);
  EXPECT_EQ(small[11], 1);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(small[static_cast<size_t>(i)], 0);
}

TEST(Nonce, DistinctAcrossPathsAndPackets) {
  EXPECT_NE(build_multipath_nonce(0, 5), build_multipath_nonce(1, 5));
  EXPECT_NE(build_multipath_nonce(0, 5), build_multipath_nonce(0, 6));
  // Same (path, pn) must collide -- that is the deterministic mapping.
  EXPECT_EQ(build_multipath_nonce(3, 9), build_multipath_nonce(3, 9));
}

TEST(Aead, SealOpenRoundtrip) {
  PacketProtection aead(0xdead);
  const std::vector<std::uint8_t> aad{1, 2, 3};
  const std::vector<std::uint8_t> plaintext{10, 20, 30, 40, 50};
  auto buf = sealed(aead, 1, 7, aad, plaintext);
  EXPECT_EQ(buf.size(), plaintext.size() + kAeadTagSize);
  const auto opened = aead.open_in_place(1, 7, aad, buf);
  ASSERT_TRUE(opened.has_value());
  buf.resize(*opened);
  EXPECT_EQ(buf, plaintext);
}

TEST(Aead, CiphertextDiffersFromPlaintext) {
  PacketProtection aead(0xdead);
  const std::vector<std::uint8_t> plaintext(64, 0xaa);
  const std::vector<std::uint8_t> none;
  const auto buf = sealed(aead, 0, 0, none, plaintext);
  bool differs = false;
  for (std::size_t i = 0; i < plaintext.size(); ++i)
    differs |= buf[i] != plaintext[i];
  EXPECT_TRUE(differs);
}

TEST(Aead, WrongKeyFails) {
  PacketProtection a(1), b(2);
  const std::vector<std::uint8_t> none;
  const std::vector<std::uint8_t> pt{1, 2, 3};
  auto buf = sealed(a, 0, 0, none, pt);
  EXPECT_FALSE(b.open_in_place(0, 0, none, buf).has_value());
}

TEST(Aead, WrongPathIdFails) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> none;
  const std::vector<std::uint8_t> pt{1, 2, 3};
  auto buf = sealed(aead, 1, 10, none, pt);
  EXPECT_FALSE(aead.open_in_place(2, 10, none, buf).has_value());
}

TEST(Aead, WrongPacketNumberFails) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> none;
  const std::vector<std::uint8_t> pt{1, 2, 3};
  auto buf = sealed(aead, 1, 10, none, pt);
  EXPECT_FALSE(aead.open_in_place(1, 11, none, buf).has_value());
}

TEST(Aead, TamperedCiphertextFails) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> none;
  const std::vector<std::uint8_t> pt{1, 2, 3, 4};
  auto buf = sealed(aead, 1, 10, none, pt);
  buf[1] ^= 0x01;
  EXPECT_FALSE(aead.open_in_place(1, 10, none, buf).has_value());
}

TEST(Aead, TamperedAadFails) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> aad{9, 9};
  const std::vector<std::uint8_t> pt{1, 2, 3};
  auto buf = sealed(aead, 1, 10, aad, pt);
  const std::vector<std::uint8_t> other_aad{9, 8};
  EXPECT_FALSE(aead.open_in_place(1, 10, other_aad, buf).has_value());
}

TEST(Aead, TooShortInputFails) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> none;
  std::vector<std::uint8_t> tiny(kAeadTagSize - 1, 0);
  EXPECT_FALSE(aead.open_in_place(0, 0, none, tiny).has_value());
}

TEST(Aead, EmptyPlaintextAuthenticates) {
  PacketProtection aead(5);
  const std::vector<std::uint8_t> aad{7};
  const std::vector<std::uint8_t> empty;
  auto buf = sealed(aead, 0, 1, aad, empty);
  const auto opened = aead.open_in_place(0, 1, aad, buf);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, 0u);
}

TEST(Aead, PayloadLengthsAroundWordAndPacketSizesRoundTrip) {
  // Seal and open each take the payload in 16-byte steps with a
  // zero-padded last step, after absorbing the AAD the same way: every
  // tail length of both, and packet-size payloads.
  const PacketProtection aead(0x5eed);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (std::size_t len = 1199; len <= 1201; ++len) lengths.push_back(len);
  for (std::size_t aad_len = 0; aad_len <= 40; ++aad_len) {
    std::vector<std::uint8_t> aad(aad_len);
    for (std::size_t i = 0; i < aad_len; ++i)
      aad[i] = static_cast<std::uint8_t>(0x40 + i);
    for (const std::size_t len : lengths) {
      std::vector<std::uint8_t> plaintext(len);
      for (std::size_t i = 0; i < len; ++i)
        plaintext[i] = static_cast<std::uint8_t>(i * 7 + len);
      const PacketNumber pn = 1000 + len + 100 * aad_len;
      std::vector<std::uint8_t> buf = sealed(aead, 3, pn, aad, plaintext);
      const auto opened = aead.open_in_place(3, pn, aad, buf);
      ASSERT_TRUE(opened.has_value()) << "len " << len << " aad " << aad_len;
      ASSERT_EQ(*opened, len);
      buf.resize(len);
      ASSERT_EQ(buf, plaintext) << "len " << len << " aad " << aad_len;
    }
  }
}

TEST(Aead, EveryPathIdAndPacketNumberBitReachesTheSeed) {
  // The per-packet seed is built from the nonce with word shifts; a bit it
  // dropped would let two (path, pn) pairs share a keystream and a tag.
  const PacketProtection aead(0x5eed);
  const std::vector<std::uint8_t> aad{0x40, 1, 2, 3};
  const std::vector<std::uint8_t> pt{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint32_t cid = 0x5a5a'a5a5;
  const PacketNumber pn = 0x2345'6789'abcd'ef01ULL;  // 62 bits
  const std::vector<std::uint8_t> wire = sealed(aead, cid, pn, aad, pt);
  std::vector<std::uint8_t> buf = wire;
  ASSERT_TRUE(aead.open_in_place(cid, pn, aad, buf).has_value());
  for (unsigned bit = 0; bit < 32; ++bit) {
    buf = wire;
    EXPECT_FALSE(aead.open_in_place(cid ^ (1u << bit), pn, aad, buf).has_value())
        << "CID sequence bit " << bit;
  }
  for (unsigned bit = 0; bit < 62; ++bit) {
    buf = wire;
    EXPECT_FALSE(
        aead.open_in_place(cid, pn ^ (1ULL << bit), aad, buf).has_value())
        << "packet number bit " << bit;
  }
}

/// A sealed 1-RTT packet of about 1200 B (one STREAM frame), the size of
/// most packets a session sends.
struct FullPacket {
  PacketProtection aead{0x0123'4567'89ab'cdefULL};
  std::vector<std::uint8_t> wire;
  std::size_t header_len = 0;

  FullPacket() {
    PacketHeader h;
    h.type = PacketType::kOneRtt;
    h.dcid = {1, 2, 3, 4, 5, 6, 7, 8};
    h.cid_sequence = 1;
    h.packet_number = 70'001;
    std::vector<std::uint8_t> data(1150);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    const Frame frame{StreamFrame{8, 4096, data, false}};
    const net::PacketBuffer buf = seal_packet_buffer(aead, h, {&frame, 1});
    wire.assign(buf.begin(), buf.end());
    PacketHeader parsed;
    header_len = parse_header(wire, parsed).value_or(0);
  }

  /// Whether `bytes` parse and authenticate; opens a copy, since opening
  /// decrypts in place.
  bool opens(std::span<const std::uint8_t> bytes) const {
    net::PacketBuffer copy = net::PacketBuffer::copy_of(bytes);
    const auto pkt = parse_packet_view(copy.span());
    return pkt && open_packet_in_place(aead, *pkt).has_value();
  }

  static bool header_parses(std::span<const std::uint8_t> bytes) {
    PacketHeader h;
    return parse_header(bytes, h).has_value();
  }
};

TEST(AeadTamper, FullSizePacketRejectsEverySingleBitFlip) {
  const FullPacket p;
  ASSERT_GE(p.wire.size(), 1180u);
  ASSERT_LE(p.wire.size(), 1220u);
  ASSERT_TRUE(p.opens(p.wire));
  std::size_t checked = 0;
  for (std::size_t bit = 0; bit < p.wire.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = p.wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (!FullPacket::header_parses(mutated)) continue;  // header broken
    ++checked;
    EXPECT_FALSE(p.opens(mutated)) << "bit " << bit;
  }
  // Every payload and tag bit, plus the header bits that still parse.
  EXPECT_GT(checked, (p.wire.size() - p.header_len) * 8);
}

TEST(AeadTamper, FullSizePacketRejectsEveryTruncation) {
  const FullPacket p;
  std::size_t checked = 0;
  for (std::size_t cut = 0; cut < p.wire.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(p.wire.data(), cut);
    if (!FullPacket::header_parses(prefix)) continue;
    ++checked;
    EXPECT_FALSE(p.opens(prefix)) << "cut " << cut;
  }
  EXPECT_EQ(checked, p.wire.size() - p.header_len);
}

TEST(AeadTamper, MovingOneByteAcrossTheAadBoundaryFails) {
  const FullPacket p;
  ASSERT_GT(p.header_len, 1u);
  // Same bytes, same nonce; only the AAD/ciphertext split differs.
  for (const std::size_t aad_len : {p.header_len - 1, p.header_len + 1}) {
    std::vector<std::uint8_t> bytes = p.wire;
    const std::span<const std::uint8_t> aad(bytes.data(), aad_len);
    const std::span<std::uint8_t> ct(bytes.data() + aad_len,
                                     bytes.size() - aad_len);
    EXPECT_FALSE(p.aead.open_in_place(1, 70'001, aad, ct).has_value())
        << "aad " << aad_len;
  }
  std::vector<std::uint8_t> bytes = p.wire;
  EXPECT_TRUE(p.aead
                  .open_in_place(
                      1, 70'001, {bytes.data(), p.header_len},
                      {bytes.data() + p.header_len, bytes.size() - p.header_len})
                  .has_value());
}

TEST(AeadTamper, SameBitFlippedInTwoWordsOfOneLaneFails) {
  // The MAC hashes 8-byte ciphertext words in 16-byte steps, the first
  // word of each step in one lane and the second in the other. In a bare
  // xor-multiply chain, flipping bit 63 of word i and of word i + 2 (the
  // next word of the same lane) cancels; every bit and every such pair
  // must fail here.
  const FullPacket p;
  const std::size_t words = (p.wire.size() - p.header_len - kAeadTagSize) / 8;
  ASSERT_GE(words, 140u);
  for (std::size_t w = 0; w + 2 < words; ++w) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      std::vector<std::uint8_t> mutated = p.wire;
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      mutated[p.header_len + 8 * w + bit / 8] ^= mask;
      mutated[p.header_len + 8 * (w + 2) + bit / 8] ^= mask;
      EXPECT_FALSE(p.opens(mutated)) << "words " << w << "," << w + 2
                                     << " bit " << bit;
    }
  }
}

TEST(Packet, OneRttRoundtrip) {
  PacketProtection aead(0x5eed);
  PacketHeader h;
  h.type = PacketType::kOneRtt;
  h.dcid = {1, 2, 3, 4, 5, 6, 7, 8};
  h.cid_sequence = 2;
  h.packet_number = 99;

  std::vector<Frame> frames;
  StreamFrame s;
  s.stream_id = 4;
  s.offset = 1000;
  s.data = {1, 2, 3};
  frames.emplace_back(s);
  frames.emplace_back(PingFrame{});

  net::PacketBuffer wire = seal_packet_buffer(aead, h, frames);
  const auto parsed = parse_packet_view(wire.span());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.type, PacketType::kOneRtt);
  EXPECT_EQ(parsed->header.dcid, h.dcid);
  EXPECT_EQ(parsed->header.cid_sequence, 2u);
  EXPECT_EQ(parsed->header.packet_number, 99u);

  const auto payload = open_packet_in_place(aead, *parsed);
  ASSERT_TRUE(payload.has_value());
  std::vector<Frame> opened;
  ASSERT_TRUE(parse_frames_into(*payload, opened));
  ASSERT_EQ(opened.size(), 2u);
  EXPECT_EQ(opened[0], Frame{s});
}

TEST(Packet, InitialRoundtripCarriesScid) {
  PacketProtection aead(0x5eed);
  PacketHeader h;
  h.type = PacketType::kInitial;
  h.dcid = {8, 7, 6, 5, 4, 3, 2, 1};
  h.scid = {1, 1, 2, 2, 3, 3, 4, 4};
  h.packet_number = 0;
  const Frame crypto{CryptoFrame{0, {1, 2, 3}}};
  net::PacketBuffer wire = seal_packet_buffer(aead, h, {&crypto, 1});
  const auto parsed = parse_packet_view(wire.span());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.type, PacketType::kInitial);
  EXPECT_EQ(parsed->header.scid, h.scid);
  EXPECT_TRUE(open_packet_in_place(aead, *parsed).has_value());
}

TEST(Packet, GarbageFailsParse) {
  PacketHeader h;
  EXPECT_FALSE(parse_header(std::vector<std::uint8_t>{}, h).has_value());
  EXPECT_FALSE(
      parse_header(std::vector<std::uint8_t>{0xff, 1, 2}, h).has_value());
  // Valid first byte but truncated header.
  std::vector<std::uint8_t> truncated{0x40, 1, 2, 3};
  EXPECT_FALSE(parse_header(truncated, h).has_value());
  EXPECT_FALSE(parse_packet_view(truncated).has_value());
}

TEST(Packet, WrongKeyFailsOpen) {
  PacketProtection good(1), bad(2);
  PacketHeader h;
  h.packet_number = 5;
  const Frame ping{PingFrame{}};
  net::PacketBuffer wire = seal_packet_buffer(good, h, {&ping, 1});
  const auto parsed = parse_packet_view(wire.span());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(open_packet_in_place(bad, *parsed).has_value());
}

TEST(Packet, HeaderTamperFailsOpen) {
  PacketProtection aead(1);
  PacketHeader h;
  h.packet_number = 5;
  h.cid_sequence = 0;
  const Frame ping{PingFrame{}};
  net::PacketBuffer wire = seal_packet_buffer(aead, h, {&ping, 1});
  wire[2] ^= 0xff;  // flip a DCID byte (inside the AAD)
  const auto parsed = parse_packet_view(wire.span());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(open_packet_in_place(aead, *parsed).has_value());
}

TEST(Packet, HeaderSizeMatchesWire) {
  PacketProtection aead(1);
  PacketHeader h;
  h.type = PacketType::kOneRtt;
  h.packet_number = 70000;  // 4-byte varint
  const Frame ping{PingFrame{}};
  const net::PacketBuffer wire = seal_packet_buffer(aead, h, {&ping, 1});
  PacketHeader parsed;
  EXPECT_EQ(parse_header(wire, parsed),
            header_size(PacketType::kOneRtt, 70000));
}

}  // namespace
}  // namespace xlink::quic
