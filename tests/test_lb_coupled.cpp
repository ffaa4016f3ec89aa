// Tests: QUIC-LB routing (paper §6) and coupled congestion control (§9).
#include <gtest/gtest.h>

#include "lb/quic_lb.h"
#include "mpquic/schedulers.h"
#include "quic/cc_coupled.h"
#include "quic/packet.h"
#include "test_support.h"

namespace xlink {
namespace {

TEST(QuicLb, ServerIdEncodeDecode) {
  std::array<std::uint8_t, 8> cid{1, 2, 3, 4, 5, 6, 7, 8};
  lb::encode_server_id(cid, 42);
  EXPECT_EQ(lb::decode_server_id(cid), 42);
  // Only the server-id byte changes.
  EXPECT_EQ(cid[0], 1);
  EXPECT_EQ(cid[7], 8);
}

TEST(QuicLb, RoutesByEncodedServerId) {
  lb::QuicLbRouter router({0, 1, 2, 3});
  std::array<std::uint8_t, 8> cid{9, 9, 9, 9, 9, 9, 9, 9};
  lb::encode_server_id(cid, 2);
  const auto dest = router.route_cid(cid);
  ASSERT_TRUE(dest.has_value());
  EXPECT_EQ(*dest, 2);
}

TEST(QuicLb, FallsBackToConsistentHashForUnknownId) {
  lb::QuicLbRouter router({0, 1, 2});
  std::array<std::uint8_t, 8> cid{7, 200, 1, 2, 3, 4, 5, 6};  // id 200: none
  const auto dest = router.route_cid(cid);
  ASSERT_TRUE(dest.has_value());
  EXPECT_LT(*dest, 3);
  // Deterministic.
  EXPECT_EQ(router.route_cid(cid), dest);
}

TEST(QuicLb, ConsistentHashSpreadsAndSticksOnResize) {
  lb::ConsistentHashRing ring;
  for (std::uint8_t id = 0; id < 4; ++id) ring.add_server(id);
  std::map<std::uint8_t, int> counts;
  std::vector<std::optional<std::uint8_t>> before;
  for (int i = 0; i < 400; ++i) {
    std::array<std::uint8_t, 8> cid{};
    for (int b = 0; b < 8; ++b)
      cid[static_cast<size_t>(b)] = static_cast<std::uint8_t>(i * 8 + b);
    const auto dest = ring.route(cid);
    ASSERT_TRUE(dest.has_value());
    ++counts[*dest];
    before.push_back(dest);
  }
  // Rough balance: each server gets a meaningful share.
  for (const auto& [id, n] : counts) EXPECT_GT(n, 40) << int(id);
  // Adding a server moves only a minority of keys.
  ring.add_server(4);
  int moved = 0;
  for (int i = 0; i < 400; ++i) {
    std::array<std::uint8_t, 8> cid{};
    for (int b = 0; b < 8; ++b)
      cid[static_cast<size_t>(b)] = static_cast<std::uint8_t>(i * 8 + b);
    if (ring.route(cid) != before[static_cast<size_t>(i)]) ++moved;
  }
  EXPECT_LT(moved, 200);
  EXPECT_GT(moved, 0);
}

TEST(QuicLb, EmptyPoolRoutesNowhere) {
  lb::QuicLbRouter router({});
  std::array<std::uint8_t, 8> cid{};
  EXPECT_FALSE(router.route_cid(cid).has_value());
}

TEST(QuicLb, AllPathsOfAConnectionReachTheSameProcess) {
  // A multipath connection whose server embeds process id 3 in its CIDs:
  // every datagram the client emits (any path) must route to process 3.
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.cid_server_id = 3;   // server's own id
  o.client_config.peer_cid_server_id = 3;
  test::WirePair pair(std::move(o));

  lb::QuicLbRouter router({0, 1, 2, 3, 4, 5});
  std::map<std::uint8_t, int> destinations;
  pair.drop_client_to_server = [&](quic::PathId, const net::Datagram& d) {
    const auto dest = router.route_datagram(d);
    if (dest) ++destinations[*dest];
    return false;
  };
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(200));
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::pattern_bytes(60 * 1024), true);
  pair.run_for(sim::seconds(1));

  ASSERT_EQ(destinations.size(), 1u) << "paths split across processes";
  EXPECT_EQ(destinations.begin()->first, 3);
  EXPECT_GT(destinations.begin()->second, 10);
}

// route_datagram reads only the packet header. The tests below pin what it
// rejects (no parseable header) and that the ciphertext never matters.

constexpr quic::PacketNumber kRoutedPn = 70'000;  // a 4-byte varint

/// Wire bytes of a sealed PING whose DCID names `server_id`.
std::vector<std::uint8_t> sealed_datagram(quic::PacketType type,
                                          std::uint8_t server_id) {
  quic::PacketHeader h;
  h.type = type;
  h.dcid = {9, 9, 9, 9, 9, 9, 9, 9};
  lb::encode_server_id(h.dcid, server_id);
  h.scid = {1, 2, 3, 4, 5, 6, 7, 8};
  h.cid_sequence = 1;
  h.packet_number = kRoutedPn;
  const quic::Frame ping{quic::PingFrame{}};
  const net::PacketBuffer wire = quic::seal_packet_buffer(
      quic::PacketProtection(0x5eed), h, {&ping, 1});
  return {wire.begin(), wire.end()};
}

constexpr quic::PacketType kBothHeaderForms[] = {quic::PacketType::kInitial,
                                                 quic::PacketType::kOneRtt};

TEST(QuicLb, RouteDatagramRejectsWhatHasNoHeader) {
  const lb::QuicLbRouter router({0, 1, 2, 3});
  EXPECT_FALSE(router.route_datagram({}).has_value());
  // A first byte that is neither the long (0xc0) nor the short (0x40) form.
  for (const std::uint8_t first : {0x00, 0x41, 0x80, 0xc1, 0xff}) {
    auto wire = sealed_datagram(quic::PacketType::kOneRtt, 2);
    wire[0] = first;
    EXPECT_FALSE(router.route_datagram(wire).has_value()) << int(first);
  }
  // Every truncation inside a long and a short header.
  for (const quic::PacketType type : kBothHeaderForms) {
    const auto wire = sealed_datagram(type, 2);
    const std::size_t header_len = quic::header_size(type, kRoutedPn);
    ASSERT_LT(header_len, wire.size());
    for (std::size_t cut = 0; cut < header_len; ++cut)
      EXPECT_FALSE(router.route_datagram({wire.data(), cut}).has_value())
          << "header form " << int(type) << " cut " << cut;
  }
}

TEST(QuicLb, RoutesSealedInitialAndOneRttByServerId) {
  const lb::QuicLbRouter router({0, 1, 2, 3});
  for (const quic::PacketType type : kBothHeaderForms) {
    for (std::uint8_t id = 0; id < 4; ++id) {
      const auto dest = router.route_datagram(sealed_datagram(type, id));
      ASSERT_TRUE(dest.has_value());
      EXPECT_EQ(*dest, id) << "header form " << int(type);
    }
  }
}

TEST(QuicLb, RoutesDespiteCutOrCorruptedCiphertext) {
  const lb::QuicLbRouter router({0, 1, 2, 3});
  for (const quic::PacketType type : kBothHeaderForms) {
    const auto wire = sealed_datagram(type, 1);
    const std::size_t header_len = quic::header_size(type, kRoutedPn);
    // The bare header, and every cut of the ciphertext and tag after it.
    for (std::size_t cut = header_len; cut <= wire.size(); ++cut)
      EXPECT_EQ(router.route_datagram({wire.data(), cut}),
                std::optional<std::uint8_t>(1))
          << "header form " << int(type) << " cut " << cut;
    // Every ciphertext and tag byte flipped: the AEAD would reject this
    // packet, the router still sends it to the DCID's server.
    auto corrupted = wire;
    for (std::size_t i = header_len; i < corrupted.size(); ++i)
      corrupted[i] ^= 0xff;
    EXPECT_EQ(router.route_datagram(corrupted),
              std::optional<std::uint8_t>(1));
  }
}

// ------------------------------------------------------------- coupled CC

TEST(CoupledLia, AlphaMatchesRfc6356ForEqualPaths) {
  // Two equal paths: alpha = total * (c/r^2) / (2c/r)^2 = 1/2.
  auto group = std::make_shared<quic::LiaGroup>();
  auto a = quic::make_lia_controller(group);
  auto b = quic::make_lia_controller(group);
  a->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  b->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  // Leave slow start so cwnds are equal and alpha is meaningful.
  EXPECT_NEAR(group->alpha(), 0.5, 0.05);
}

TEST(CoupledLia, CongestionAvoidanceGrowsSlowerThanUncoupled) {
  auto grow_bytes = [](bool coupled) {
    auto group = std::make_shared<quic::LiaGroup>();
    auto make = [&]() -> std::unique_ptr<quic::CongestionController> {
      if (coupled) return quic::make_lia_controller(group);
      return quic::make_congestion_controller(quic::CcAlgorithm::kNewReno);
    };
    auto a = make();
    auto b = make();
    // Push both out of slow start.
    a->on_loss_event(sim::millis(5), sim::millis(10));
    b->on_loss_event(sim::millis(5), sim::millis(10));
    const std::size_t start = a->cwnd_bytes() + b->cwnd_bytes();
    for (int i = 0; i < 200; ++i) {
      a->on_ack(1400, sim::millis(20 + i), sim::millis(70 + i),
                sim::millis(50));
      b->on_ack(1400, sim::millis(20 + i), sim::millis(70 + i),
                sim::millis(50));
    }
    return a->cwnd_bytes() + b->cwnd_bytes() - start;
  };
  const auto coupled = grow_bytes(true);
  const auto uncoupled = grow_bytes(false);
  EXPECT_LT(coupled, uncoupled);
  EXPECT_GT(coupled, 0u);
  // RFC 6356 goal: the pair grows like ~one flow, i.e. about half the
  // aggressiveness of two independent flows.
  EXPECT_NEAR(static_cast<double>(coupled) / uncoupled, 0.5, 0.25);
}

TEST(CoupledLia, LossHalvesOnlyTheLossyPath) {
  auto group = std::make_shared<quic::LiaGroup>();
  auto a = quic::make_lia_controller(group);
  auto b = quic::make_lia_controller(group);
  for (int i = 0; i < 20; ++i)
    a->on_ack(1400, sim::millis(10), sim::millis(60), sim::millis(50));
  const std::size_t b_before = b->cwnd_bytes();
  a->on_loss_event(sim::millis(100), sim::millis(200));
  EXPECT_EQ(b->cwnd_bytes(), b_before);
  EXPECT_LT(a->cwnd_bytes(), 21 * 1400 + 1);
}

TEST(CoupledLia, EndToEndSessionCompletes) {
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.cc = quic::CcAlgorithm::kCoupledLia;
  test::WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  const auto payload = test::pattern_bytes(200 * 1024, 4);
  pair.server->stream_send(id, payload, true);
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, payload);
  EXPECT_EQ(pair.server->path_state(0).cc->name(), "lia");
}

// --------------------------------------------------- related-work pickers

TEST(RelatedSchedulers, NamesAndBasicPicks) {
  EXPECT_EQ(mpquic::make_ecf_scheduler()->name(), "ecf");
  EXPECT_EQ(mpquic::make_blest_scheduler()->name(), "blest");
}

struct SchedFixture {
  explicit SchedFixture(std::shared_ptr<quic::Scheduler> sched) {
    test::WirePair::Options o;
    o.client_config = test::multipath_config();
    o.server_config = test::multipath_config();
    o.server_config.scheduler = sched;
    o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
    pair = std::make_unique<test::WirePair>(std::move(o));
    EXPECT_TRUE(pair->establish());
    pair->run_for(sim::millis(100));
    EXPECT_TRUE(pair->client->open_path().has_value());
    pair->run_for(sim::millis(200));
  }
  std::unique_ptr<test::WirePair> pair;
};

TEST(RelatedSchedulers, EcfPrefersFastPathAndCanWait) {
  auto sched = mpquic::make_ecf_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(800), 0);
  }
  // Fast path open: picked.
  quic::SendItem item;
  item.length = 1000;
  server.send_queue().push_back(item);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(0));
  // Fast path full, tiny queue: waiting beats the 800ms path.
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(500, 0, p0.cc->cwnd_bytes(), true);
  EXPECT_EQ(sched->select_path(server), std::nullopt);
}

TEST(RelatedSchedulers, EcfUsesSlowPathForLargeBacklog) {
  auto sched = mpquic::make_ecf_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(50), 0);
    server.path_state(1).rtt.on_sample(sim::millis(120), 0);
  }
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(500, 0, p0.cc->cwnd_bytes(), true);
  // Large backlog: the slow path's bandwidth is worth it.
  quic::SendItem item;
  item.length = 4 * 1024 * 1024;
  server.send_queue().push_back(item);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(1));
}

TEST(RelatedSchedulers, BlestPicksFastPathWhenOpen) {
  auto sched = mpquic::make_blest_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(100), 0);
  }
  quic::SendItem item;
  item.length = 1000;
  server.send_queue().push_back(item);
  EXPECT_EQ(sched->select_path(server), std::optional<quic::PathId>(0));
}

TEST(RelatedSchedulers, BlestSitsOutWhenBlockingPredicted) {
  auto sched = mpquic::make_blest_scheduler();
  SchedFixture fx(sched);
  auto& server = *fx.pair->server;
  for (int i = 0; i < 20; ++i) {
    server.path_state(0).rtt.on_sample(sim::millis(20), 0);
    server.path_state(1).rtt.on_sample(sim::millis(2000), 0);  // 100x
  }
  auto& p0 = server.path_state(0);
  p0.loss.on_packet_sent(500, 0, p0.cc->cwnd_bytes(), true);
  quic::SendItem item;
  item.length = 1000;
  server.send_queue().push_back(item);
  // rtt ratio 100 -> fast path ships 100 windows meanwhile: blocked.
  EXPECT_EQ(sched->select_path(server), std::nullopt);
}

}  // namespace
}  // namespace xlink
