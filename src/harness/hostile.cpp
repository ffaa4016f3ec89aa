#include "harness/hostile.h"

#include "net/datagram.h"

namespace xlink::harness {

namespace {
/// High enough that forged packets never collide with (= get deduplicated
/// against) an honest peer's packet numbers in the same space.
constexpr quic::PacketNumber kForgedPnBase = 1u << 20;
}  // namespace

net::PacketBuffer HostilePeer::seal(
    quic::PathId path, quic::PacketNumber pn,
    const std::vector<quic::Frame>& frames) const {
  quic::PacketHeader header;
  header.type = quic::PacketType::kOneRtt;
  header.cid_sequence = static_cast<std::uint32_t>(path);
  header.packet_number = pn;
  return quic::seal_packet_buffer(aead_, header, frames);
}

net::PacketBuffer HostilePeer::seal_initial(
    quic::PathId path, quic::PacketNumber pn,
    const std::vector<quic::Frame>& frames) const {
  quic::PacketHeader header;
  header.type = quic::PacketType::kInitial;
  header.cid_sequence = static_cast<std::uint32_t>(path);
  header.packet_number = pn;
  return quic::seal_packet_buffer(aead_, header, frames);
}

quic::PacketNumber HostilePeer::next_pn(quic::PathId path) const {
  auto it = pns_.find(path);
  return it == pns_.end() ? kForgedPnBase : it->second;
}

void HostilePeer::inject(quic::PathId path,
                         const std::vector<quic::Frame>& frames) {
  const quic::PacketNumber pn = next_pn(path);
  pns_[path] = pn + 1;
  inject_at(path, pn, frames);
}

void HostilePeer::inject_at(quic::PathId path, quic::PacketNumber pn,
                            const std::vector<quic::Frame>& frames) {
  ++injected_;
  victim_.on_datagram(path, seal(path, pn, frames));
}

void HostilePeer::inject_wire(quic::PathId path,
                              std::span<const std::uint8_t> wire) {
  ++injected_;
  victim_.on_datagram(path, net::PacketBuffer::copy_of(wire));
}

std::optional<quic::ConnectionCloseFrame> HostilePeer::find_close(
    const std::vector<std::vector<std::uint8_t>>& wires) const {
  std::vector<quic::Frame> frames;
  for (const auto& wire : wires) {
    net::PacketBuffer buf = net::PacketBuffer::copy_of(wire);
    const auto pkt = quic::parse_packet_view(buf.span());
    if (!pkt) continue;
    const auto payload = quic::open_packet_in_place(aead_, *pkt);
    frames.clear();
    if (!payload || !quic::parse_frames_into(*payload, frames)) continue;
    for (const quic::Frame& f : frames)
      if (const auto* close = std::get_if<quic::ConnectionCloseFrame>(&f))
        return *close;
  }
  return std::nullopt;
}

}  // namespace xlink::harness
