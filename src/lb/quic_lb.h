// QUIC-LB style connection-ID routing (paper §6).
//
// The deployed system sits behind L4 load balancers and multi-process CDN
// servers. Two layers of routing keep every path of a connection on the
// same process:
//  - the load balancer applies the QUIC-LB draft's "plaintext CID"
//    algorithm: a server id is encoded at a fixed offset of every CID the
//    server issues, so any packet carrying any of that server's CIDs routes
//    back to it;
//  - CIDs without a decodable server id (e.g. the client's initial random
//    DCID) fall back to consistent hashing, so first flights distribute
//    evenly and stay sticky.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/types.h"

namespace xlink::lb {

/// Offset of the encoded server id inside an 8-byte CID. Byte 0 is kept
/// for entropy so CIDs do not become trivially linkable; the draft calls
/// this the "first octet" config parameter.
constexpr std::size_t kServerIdOffset = quic::kCidServerIdOffset;

/// Writes `server_id` into a CID (the issuing server does this).
void encode_server_id(std::array<std::uint8_t, 8>& cid,
                      std::uint8_t server_id);

/// Reads the encoded server id back out.
std::uint8_t decode_server_id(std::span<const std::uint8_t, 8> cid);

/// A consistent-hash ring of server ids with virtual nodes, used for CIDs
/// that carry no routable server id.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int virtual_nodes = 64)
      : virtual_nodes_(virtual_nodes) {}

  void add_server(std::uint8_t server_id);
  void remove_server(std::uint8_t server_id);
  std::size_t server_count() const { return servers_.size(); }

  /// Maps arbitrary CID bytes onto a server; nullopt if the ring is empty.
  std::optional<std::uint8_t> route(
      std::span<const std::uint8_t> cid) const;

 private:
  int virtual_nodes_;
  std::map<std::uint64_t, std::uint8_t> ring_;  // point -> server id
  std::vector<std::uint8_t> servers_;
};

/// The load balancer: routes datagrams to server processes by DCID.
class QuicLbRouter {
 public:
  explicit QuicLbRouter(std::vector<std::uint8_t> server_ids);

  /// Routing decision for one datagram (wire bytes). Prefers the encoded
  /// server id when it names a live server; falls back to the hash ring.
  /// Reads only the packet header, never the ciphertext. nullopt for a
  /// header that does not parse or an empty pool.
  std::optional<std::uint8_t> route_datagram(
      std::span<const std::uint8_t> datagram) const;

  /// Routing decision for a bare CID.
  std::optional<std::uint8_t> route_cid(
      std::span<const std::uint8_t, 8> cid) const;

  void add_server(std::uint8_t server_id);
  void remove_server(std::uint8_t server_id);
  bool has_server(std::uint8_t server_id) const;

 private:
  std::vector<std::uint8_t> servers_;
  ConsistentHashRing ring_;
};

}  // namespace xlink::lb
