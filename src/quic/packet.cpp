#include "quic/packet.h"

namespace xlink::quic {
namespace {

constexpr std::uint8_t kLongHeaderByte = 0xc0;
constexpr std::uint8_t kShortHeaderByte = 0x40;

template <typename W>
void encode_header_to(const PacketHeader& h, W& w) {
  if (h.type == PacketType::kInitial) {
    w.u8(kLongHeaderByte);
    w.bytes(h.dcid);
    w.bytes(h.scid);
  } else {
    w.u8(kShortHeaderByte);
    w.bytes(h.dcid);
  }
  w.u32(h.cid_sequence);
  w.varint(h.packet_number);
}

}  // namespace

std::optional<std::size_t> parse_header(std::span<const std::uint8_t> datagram,
                                        PacketHeader& header) {
  Reader r(datagram);
  const auto first = r.u8();
  if (!first) return std::nullopt;
  if (*first == kLongHeaderByte) {
    header.type = PacketType::kInitial;
    if (!r.bytes_into(header.dcid)) return std::nullopt;
    if (!r.bytes_into(header.scid)) return std::nullopt;
  } else if (*first == kShortHeaderByte) {
    header.type = PacketType::kOneRtt;
    if (!r.bytes_into(header.dcid)) return std::nullopt;
  } else {
    return std::nullopt;
  }
  const auto seq = r.u32();
  const auto pn = r.varint();
  if (!seq || !pn) return std::nullopt;
  header.cid_sequence = *seq;
  header.packet_number = *pn;
  return r.position();
}

net::PacketBuffer seal_packet_buffer(const PacketProtection& aead,
                                     const PacketHeader& header,
                                     std::span<const Frame> frames) {
  net::PacketBuffer out =
      net::PacketBuffer::with_capacity(net::PacketBufferPool::kSlotCapacity);
  const auto write_all = [&](BufWriter& w) {
    encode_header_to(header, w);
    const std::size_t hdr = w.size();
    for (const Frame& f : frames) encode_frame(f, w);
    return hdr;
  };
  BufWriter w(out.data(), out.capacity() - kAeadTagSize);
  std::size_t hdr_len = write_all(w);
  if (w.overflowed()) {
    // Oversize packet (jumbo control bursts): size it exactly, then retry
    // into a standalone block.
    SizeWriter sz;
    encode_header_to(header, sz);
    for (const Frame& f : frames) encode_frame(f, sz);
    out = net::PacketBuffer::with_capacity(sz.size() + kAeadTagSize);
    w = BufWriter(out.data(), out.capacity() - kAeadTagSize);
    hdr_len = write_all(w);
  }
  const std::size_t total = w.size();
  aead.seal_in_place(header.cid_sequence, header.packet_number,
                     std::span<const std::uint8_t>(out.data(), hdr_len),
                     out.data() + hdr_len, total - hdr_len);
  out.resize(total + kAeadTagSize);
  return out;
}

std::optional<PacketView> parse_packet_view(std::span<std::uint8_t> datagram) {
  PacketView pkt;
  const auto hdr_len = parse_header(datagram, pkt.header);
  if (!hdr_len) return std::nullopt;
  pkt.header_bytes = std::span<const std::uint8_t>(datagram.first(*hdr_len));
  pkt.ciphertext = datagram.subspan(*hdr_len);
  return pkt;
}

std::optional<std::span<const std::uint8_t>> open_packet_in_place(
    const PacketProtection& aead, const PacketView& pkt) {
  const auto len =
      aead.open_in_place(pkt.header.cid_sequence, pkt.header.packet_number,
                         pkt.header_bytes, pkt.ciphertext);
  if (!len) return std::nullopt;
  return std::span<const std::uint8_t>(pkt.ciphertext.first(*len));
}

std::size_t header_size(PacketType type, PacketNumber pn) {
  const std::size_t base = (type == PacketType::kInitial) ? 1 + 8 + 8 : 1 + 8;
  return base + 4 + varint_size(pn);
}

}  // namespace xlink::quic
