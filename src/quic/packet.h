// QUIC packet header encoding and in-place packet seal/open.
//
// Two header forms, mirroring RFC 9000's long/short split with the fields
// this simulator needs:
//   long (handshake):  [0xC0][dcid(8)][scid(8)][pn varint]
//   short (1-RTT):     [0x40][dcid(8)][pn varint]
// Header bytes are the AEAD's associated data. Header protection is not
// modeled (it hides packet numbers from observers, not from endpoints, and
// has no transport-behaviour effect). The packet number is carried in full
// rather than truncated -- a documented simplification that costs a few
// bytes per packet and removes PN-decoding ambiguity.
//
// One packet path, no copies: seal_packet_buffer seals inside a pooled
// buffer; parse_packet_view, open_packet_in_place and parse_frames_into
// (frame.h) each return views of their input, which the caller keeps alive
// while it uses them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/packet_buffer.h"
#include "quic/crypto.h"
#include "quic/frame.h"
#include "quic/types.h"

namespace xlink::quic {

enum class PacketType : std::uint8_t {
  kInitial,  // long header: carries the handshake CRYPTO exchange
  kOneRtt,   // short header: everything after the handshake
};

struct PacketHeader {
  PacketType type = PacketType::kOneRtt;
  std::array<std::uint8_t, 8> dcid{};
  std::array<std::uint8_t, 8> scid{};  // long header only
  /// CID sequence number of the DCID: identifies the path / PN space.
  std::uint32_t cid_sequence = 0;
  PacketNumber packet_number = 0;
};

/// A parsed packet whose bytes still live in the receive buffer: the AAD
/// and ciphertext are borrowed spans, and open_packet_in_place decrypts
/// the ciphertext span directly. Valid only while the datagram is alive.
struct PacketView {
  PacketHeader header;
  std::span<const std::uint8_t> header_bytes;  // AAD
  std::span<std::uint8_t> ciphertext;          // payload || tag
};

/// Seals header + frames into one pooled buffer: header and payload are
/// encoded straight into the slot, then the AEAD encrypts the payload in
/// place and appends the tag. Zero heap allocations once the pool is warm.
/// The header carries cid_sequence explicitly (in a real deployment the
/// receiver derives it by looking up the DCID it issued; carrying it keeps
/// the simulator honest without a global CID table).
net::PacketBuffer seal_packet_buffer(const PacketProtection& aead,
                                     const PacketHeader& header,
                                     std::span<const Frame> frames);

/// Parses the header at the start of `datagram` into `header`; returns the
/// header length (the AAD boundary) or nullopt on malformed input. Reads
/// only the header, so it accepts any ciphertext, even a truncated one;
/// routers that need only the DCID stop here.
std::optional<std::size_t> parse_header(std::span<const std::uint8_t> datagram,
                                        PacketHeader& header);

/// Splits wire bytes into borrowed header/ciphertext views; nullopt on
/// malformed input. The mutable span lets open_packet_in_place decrypt the
/// buffer it points into.
std::optional<PacketView> parse_packet_view(std::span<std::uint8_t> datagram);

/// Decrypts a parsed packet in its receive buffer; returns the plaintext
/// payload span (a prefix of pkt.ciphertext) or nullopt on auth failure.
/// Either way the ciphertext is gone afterwards (a failed open leaves it
/// scrambled), so a caller that still needs the sealed bytes copies them
/// first.
std::optional<std::span<const std::uint8_t>> open_packet_in_place(
    const PacketProtection& aead, const PacketView& pkt);

/// Wire overhead of a packet header (for payload budgeting).
std::size_t header_size(PacketType type, PacketNumber pn);

}  // namespace xlink::quic
