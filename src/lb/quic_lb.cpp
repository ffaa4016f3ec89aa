#include "lb/quic_lb.h"

#include <algorithm>

#include "quic/packet.h"

namespace xlink::lb {
namespace {

std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) {
  // FNV-1a folded through a splitmix finalizer.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

void encode_server_id(std::array<std::uint8_t, 8>& cid,
                      std::uint8_t server_id) {
  cid[kServerIdOffset] = server_id;
}

std::uint8_t decode_server_id(std::span<const std::uint8_t, 8> cid) {
  return cid[kServerIdOffset];
}

void ConsistentHashRing::add_server(std::uint8_t server_id) {
  if (std::find(servers_.begin(), servers_.end(), server_id) !=
      servers_.end())
    return;
  servers_.push_back(server_id);
  for (int v = 0; v < virtual_nodes_; ++v) {
    const std::uint8_t key[2] = {server_id, static_cast<std::uint8_t>(v)};
    ring_.emplace(hash_bytes(key, 0x5b), server_id);
  }
}

void ConsistentHashRing::remove_server(std::uint8_t server_id) {
  servers_.erase(std::remove(servers_.begin(), servers_.end(), server_id),
                 servers_.end());
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == server_id)
      it = ring_.erase(it);
    else
      ++it;
  }
}

std::optional<std::uint8_t> ConsistentHashRing::route(
    std::span<const std::uint8_t> cid) const {
  if (ring_.empty()) return std::nullopt;
  const std::uint64_t point = hash_bytes(cid, 0);
  auto it = ring_.lower_bound(point);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

QuicLbRouter::QuicLbRouter(std::vector<std::uint8_t> server_ids)
    : servers_(std::move(server_ids)) {
  for (std::uint8_t id : servers_) ring_.add_server(id);
}

bool QuicLbRouter::has_server(std::uint8_t server_id) const {
  return std::find(servers_.begin(), servers_.end(), server_id) !=
         servers_.end();
}

void QuicLbRouter::add_server(std::uint8_t server_id) {
  if (has_server(server_id)) return;
  servers_.push_back(server_id);
  ring_.add_server(server_id);
}

void QuicLbRouter::remove_server(std::uint8_t server_id) {
  servers_.erase(std::remove(servers_.begin(), servers_.end(), server_id),
                 servers_.end());
  ring_.remove_server(server_id);
}

std::optional<std::uint8_t> QuicLbRouter::route_cid(
    std::span<const std::uint8_t, 8> cid) const {
  const std::uint8_t encoded = decode_server_id(cid);
  if (has_server(encoded)) return encoded;
  return ring_.route(cid);
}

std::optional<std::uint8_t> QuicLbRouter::route_datagram(
    std::span<const std::uint8_t> datagram) const {
  quic::PacketHeader header;
  if (!quic::parse_header(datagram, header)) return std::nullopt;
  return route_cid(std::span<const std::uint8_t, 8>(header.dcid));
}

}  // namespace xlink::lb
