// Hostile-peer attack harness.
//
// A scripted attacker that speaks just enough of the wire protocol to put
// arbitrary frames in front of a victim Connection, bypassing the honest
// transport entirely. It owns the connection-wide AEAD key (every XLINK
// endpoint of a connection shares one), so every forged packet
// authenticates: the guard has to win on protocol and budget enforcement,
// never on crypto. Forged packets take the honest datapath: sealed into a
// pooled buffer that the victim decrypts in place.
//
// The harness also wiretaps the victim's outbound datagrams so tests can
// assert the *graceful* part of a close -- that a CONNECTION_CLOSE frame
// carrying the right transport error code actually went on the wire.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/packet_buffer.h"
#include "quic/connection.h"
#include "quic/crypto.h"
#include "quic/packet.h"

namespace xlink::harness {

class HostilePeer {
 public:
  /// Attacks `victim` using its own configured AEAD key.
  explicit HostilePeer(quic::Connection& victim)
      : victim_(victim), aead_(victim.config().aead_key) {}

  /// Seals `frames` as a short-header packet numbered `pn` in `path`'s
  /// number space, into a pooled buffer. The wire image is independently
  /// replayable through inject_wire().
  net::PacketBuffer seal(quic::PathId path, quic::PacketNumber pn,
                         const std::vector<quic::Frame>& frames) const;

  /// Like seal() but with a long (Initial) header -- pre-handshake attacks.
  net::PacketBuffer seal_initial(quic::PathId path, quic::PacketNumber pn,
                                 const std::vector<quic::Frame>& frames) const;

  /// Seals and injects at the next fresh packet number for `path`.
  void inject(quic::PathId path, const std::vector<quic::Frame>& frames);

  /// Seals and injects with an explicit packet number (replay/collision
  /// attacks pick their own).
  void inject_at(quic::PathId path, quic::PacketNumber pn,
                 const std::vector<quic::Frame>& frames);

  /// Injects a copy of pre-sealed wire bytes verbatim (replay attacks: the
  /// victim decrypts in place, so each injection needs its own copy).
  void inject_wire(quic::PathId path, std::span<const std::uint8_t> wire);

  /// Next packet number inject() will use on `path`. Defaults high so
  /// forged packets never collide with an honest peer's number space.
  quic::PacketNumber next_pn(quic::PathId path) const;
  void set_next_pn(quic::PathId path, quic::PacketNumber pn) {
    pns_[path] = pn;
  }

  std::uint64_t packets_injected() const { return injected_; }

  /// First CONNECTION_CLOSE frame found in `wires` (datagrams recorded from
  /// the victim's send callback), if any. Each datagram is opened in a
  /// copy, so `wires` stays intact.
  std::optional<quic::ConnectionCloseFrame> find_close(
      const std::vector<std::vector<std::uint8_t>>& wires) const;

  const quic::PacketProtection& aead() const { return aead_; }

 private:
  quic::Connection& victim_;
  quic::PacketProtection aead_;
  std::map<quic::PathId, quic::PacketNumber> pns_;
  std::uint64_t injected_ = 0;
};

}  // namespace xlink::harness
