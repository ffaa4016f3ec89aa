// Edge-case tests for the connection: reordering, duplication, packet
// number space independence, ack-range bookkeeping under gaps.
#include <gtest/gtest.h>

#include <deque>

#include "mpquic/schedulers.h"
#include "test_support.h"

namespace xlink::quic {
namespace {

using test::WirePair;

WirePair::Options mp_options() {
  WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  return o;
}

TEST(ConnectionEdge, SurvivesHeavyReordering) {
  // Hold every 3rd server->client datagram and deliver it 80ms late.
  WirePair pair(mp_options());
  int counter = 0;
  pair.drop_server_to_client = [&](PathId path, const net::Datagram& d) {
    if (++counter % 3 == 0) {
      pair.loop.schedule_in(sim::millis(80),
                            [&pair, path, d = d.clone()]() mutable {
                              pair.client->on_datagram(path, std::move(d));
                            });
      return true;  // drop the immediate delivery; the late copy arrives
    }
    return false;
  };
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(150 * 1024, 6);
  pair.server->stream_send(id, payload, true);
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 200 && got.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, payload);
}

TEST(ConnectionEdge, DuplicateDatagramsAreIdempotent) {
  WirePair pair(mp_options());
  // Deliver every server->client datagram twice.
  pair.drop_server_to_client = [&](PathId path, const net::Datagram& d) {
    pair.loop.schedule_in(sim::millis(5),
                          [&pair, path, d = d.clone()]() mutable {
                            pair.client->on_datagram(path, std::move(d));
                          });
    return false;
  };
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(60 * 1024, 8);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::seconds(2));
  auto* stream = pair.client->recv_stream(id);
  ASSERT_TRUE(stream && stream->fully_received());
  // Duplicates must not inflate stream content or crash loss accounting.
  EXPECT_EQ(*stream->final_size(), payload.size());
  EXPECT_EQ(pair.client->consume_stream(id, 1 << 20), payload);
  // Read through its FIN, the stream is retired.
  EXPECT_EQ(pair.client->recv_stream(id), nullptr);
}

TEST(ConnectionEdge, PacketNumberSpacesArePerPath) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(200));
  // Drive traffic over both paths.
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  pair.server->stream_send(id, test::pattern_bytes(400 * 1024, 9), true);
  for (int i = 0; i < 60; ++i) {
    pair.run_for(sim::millis(50));
    pair.client->consume_stream(id, 1 << 20);
  }
  const auto& p0 = pair.server->path_state(0);
  const auto& p1 = pair.server->path_state(1);
  // Both spaces start at 0 independently: packet counts per path overlap
  // in numbering, which only works with separate spaces + per-path nonces.
  EXPECT_GT(p0.packets_sent, 10u);
  EXPECT_GT(p1.packets_sent, 10u);
  EXPECT_GT(p0.next_pn, 0u);
  EXPECT_GT(p1.next_pn, 0u);
  EXPECT_EQ(pair.client->stats().auth_failures, 0u);
}

TEST(ConnectionEdge, AckRangesStayBoundedUnderSparseLoss) {
  // Drop 30% of data packets: the client's ack-range list must not grow
  // without bound (capped at 32 ranges).
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  int n = 0;
  pair.drop_server_to_client = [&n](PathId, const net::Datagram&) {
    return (++n % 10) < 3;
  };
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(300 * 1024, 3);
  pair.server->stream_send(id, payload, true);
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(received, payload);
  EXPECT_LE(pair.client->path_state(0).recv_ranges.size(), 32u);
}

TEST(ConnectionEdge, ZeroLengthStreamWithFin) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, {}, true);  // empty request body
  pair.run_for(sim::millis(200));
  auto* stream = pair.server->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->final_size().has_value());
  EXPECT_EQ(*stream->final_size(), 0u);
}

TEST(ConnectionEdge, ManyConcurrentStreams) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  constexpr int kStreams = 24;
  std::vector<StreamId> ids;
  for (int i = 0; i < kStreams; ++i) {
    const StreamId id = pair.client->open_stream();
    ids.push_back(id);
    pair.client->stream_send(id, test::pattern_bytes(4000, static_cast<std::uint8_t>(i)), true);
  }
  pair.run_for(sim::seconds(2));
  for (int i = 0; i < kStreams; ++i) {
    auto* stream = pair.server->recv_stream(ids[static_cast<size_t>(i)]);
    ASSERT_NE(stream, nullptr) << "stream " << i;
    EXPECT_TRUE(stream->fully_received()) << "stream " << i;
    EXPECT_EQ(pair.server->consume_stream(ids[static_cast<size_t>(i)], 1 << 20),
              test::pattern_bytes(4000, static_cast<std::uint8_t>(i)));
  }
}

TEST(ConnectionEdge, StreamIdsAdvanceByFour) {
  WirePair pair(mp_options());
  EXPECT_EQ(pair.client->open_stream(), 0u);
  EXPECT_EQ(pair.client->open_stream(), 4u);
  EXPECT_EQ(pair.client->open_stream(), 8u);
}

TEST(ConnectionEdge, LatePathOpenAfterTraffic) {
  // Opening the second path mid-transfer must not corrupt the stream.
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  const auto payload = test::pattern_bytes(500 * 1024, 5);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::millis(120));  // some data flows on path 0 only
  ASSERT_TRUE(pair.client->open_path().has_value());
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 200 && got.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace xlink::quic
