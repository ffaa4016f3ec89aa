// Integration tests: two Connections over an in-memory wire -- handshake,
// multipath negotiation, path lifecycle, stream transfer, flow control,
// loss recovery, migration, and QoE plumbing.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "harness/hostile.h"
#include "mpquic/schedulers.h"
#include "quic/packet.h"
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

// Path lists live inline up to the default CID limit and spill to the heap
// beyond it, so a connection with more paths still lists every one.
TEST(PathList, KeepsOrderAcrossTheInlineLimit) {
  PathList list;
  std::vector<PathId> expected;
  for (PathId id = 0; id < 3 * PathList::kInline; id += 1 + id % 2) {
    list.push_back(id);
    expected.push_back(id);
    ASSERT_EQ(list.size(), expected.size());
    EXPECT_EQ(std::vector<PathId>(list.begin(), list.end()), expected);
  }
  EXPECT_GT(list.size(), PathList::kInline);
  EXPECT_TRUE(PathList{}.empty());
}

TEST(Connection, HandshakeEstablishesBothSides) {
  WirePair pair(mp_options());
  EXPECT_FALSE(pair.client->is_established());
  ASSERT_TRUE(pair.establish());
  EXPECT_TRUE(pair.client->multipath_enabled());
  EXPECT_TRUE(pair.server->multipath_enabled());
}

TEST(Connection, MultipathFallsBackWhenServerDeclines) {
  WirePair::Options o = mp_options();
  o.server_config.params.enable_multipath = false;
  WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  EXPECT_FALSE(pair.client->multipath_enabled());
  EXPECT_FALSE(pair.server->multipath_enabled());
  EXPECT_FALSE(pair.client->open_path().has_value());
}

TEST(Connection, OpenPathBeforeEstablishFails) {
  WirePair pair(mp_options());
  EXPECT_FALSE(pair.client->open_path().has_value());
}

TEST(Connection, OpenPathValidatesViaChallenge) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));  // let NEW_CONNECTION_IDs flow

  bool validated = false;
  pair.client->on_path_validated = [&](PathId id) {
    validated = id == 1;
  };
  const auto id = pair.client->open_path();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 1u);
  EXPECT_EQ(pair.client->path_state(1).state,
            PathState::State::kValidating);
  pair.run_for(sim::millis(100));
  EXPECT_TRUE(validated);
  EXPECT_EQ(pair.client->path_state(1).state, PathState::State::kActive);
  EXPECT_TRUE(pair.server->has_path(1));
}

TEST(Connection, StreamTransferClientToServer) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  const auto payload = test::pattern_bytes(50000);
  pair.client->stream_send(id, payload, true);
  pair.run_for(sim::seconds(2));
  auto* stream = pair.server->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->fully_received());
  EXPECT_EQ(pair.server->consume_stream(id, 100000), payload);
}

TEST(Connection, StreamTransferServerToClient) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("req"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(80000, 9);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::seconds(2));
  auto* stream = pair.client->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  EXPECT_TRUE(stream->fully_received());
  EXPECT_EQ(pair.client->consume_stream(id, 100000), payload);
}

TEST(Connection, FinishedStreamsRetireOnBothSides) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("req"), true);
  pair.run_for(sim::millis(100));
  // Acknowledged in full (bytes and FIN): the request's send side is gone.
  EXPECT_EQ(pair.client->send_stream(id), nullptr);
  // Read through its FIN: the server's receive side retires with the read.
  ASSERT_NE(pair.server->recv_stream(id), nullptr);
  EXPECT_EQ(pair.server->consume_stream(id, 100), test::bytes_of("req"));
  EXPECT_EQ(pair.server->recv_stream(id), nullptr);

  const auto payload = test::pattern_bytes(80000, 3);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::seconds(1));
  EXPECT_EQ(pair.server->send_stream(id), nullptr);
  // Received but not read yet: the client still holds it.
  ASSERT_NE(pair.client->recv_stream(id), nullptr);
  EXPECT_EQ(pair.client->consume_stream(id, 60000).size(), 60000u);
  ASSERT_NE(pair.client->recv_stream(id), nullptr);
  EXPECT_EQ(pair.client->consume_stream(id, 60000).size(), 20000u);
  EXPECT_EQ(pair.client->recv_stream(id), nullptr);

  // A retired stream is closed for good: a late write does not reopen it.
  pair.server->stream_send(id, test::bytes_of("late"), true);
  pair.server->set_stream_priority(id, 1);
  EXPECT_EQ(pair.server->send_stream(id), nullptr);
  pair.run_for(sim::millis(100));
  EXPECT_EQ(pair.client->recv_stream(id), nullptr);
}

TEST(Connection, LargeTransferExceedsInitialFlowControlWindows) {
  WirePair::Options o = mp_options();
  o.client_config.params.initial_max_data = 64 * 1024;
  o.client_config.params.initial_max_stream_data = 32 * 1024;
  o.server_config.params.initial_max_data = 64 * 1024;
  o.server_config.params.initial_max_stream_data = 32 * 1024;
  WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));

  // 256 KB >> the 32 KB stream window: requires MAX_STREAM_DATA updates,
  // which require the receiving app to consume.
  const auto payload = test::pattern_bytes(256 * 1024, 3);
  pair.server->stream_send(id, payload, true);
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 200 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, payload);
}

TEST(Connection, ReadingOneStreamGrantsOnlyThatStream) {
  constexpr std::uint64_t kWindow = 32 * 1024;
  WirePair::Options o = mp_options();
  o.client_config.params.initial_max_stream_data = kWindow;
  const std::uint64_t key = o.client_config.aead_key;
  WirePair pair(std::move(o));
  // Record every MAX_STREAM_DATA the client sends, in order.
  const PacketProtection aead(key);
  std::map<StreamId, std::vector<std::uint64_t>> grants;
  std::vector<Frame> frames;
  pair.drop_client_to_server = [&](PathId, const net::Datagram& d) {
    // Opening decrypts in place: open a copy, the datagram still flies.
    net::PacketBuffer copy = d.clone();
    const auto pkt = parse_packet_view(copy.span());
    const auto payload = pkt ? open_packet_in_place(aead, *pkt) : std::nullopt;
    frames.clear();
    if (payload && !parse_frames_into(*payload, frames)) frames.clear();
    for (const Frame& f : frames)
      if (const auto* m = std::get_if<MaxStreamDataFrame>(&f)) {
        auto& seen = grants[m->stream_id];
        if (seen.empty() || seen.back() != m->maximum)
          seen.push_back(m->maximum);
      }
    return false;
  };
  ASSERT_TRUE(pair.establish());
  const StreamId a = pair.client->open_stream();
  const StreamId b = pair.client->open_stream();
  pair.client->stream_send(a, test::bytes_of("a"), true);
  pair.client->stream_send(b, test::bytes_of("b"), true);
  pair.run_for(sim::millis(100));
  // B's response fits its window and goes first: the send queue would
  // hold it behind A's flow-blocked bytes otherwise.
  pair.server->stream_send(b, test::pattern_bytes(24 * 1024, 2), true);
  pair.server->stream_send(a, test::pattern_bytes(256 * 1024, 1), true);
  pair.run_for(sim::millis(200));

  // One read of B past half its window: exactly one grant for B.
  ASSERT_EQ(pair.client->consume_stream(b, 20 * 1024).size(), 20 * 1024u);
  // Then only A is read. The grant rule: when less than half a window is
  // left, grant the read offset plus a window.
  std::vector<std::uint64_t> expected_a;
  std::uint64_t read = 0;
  std::uint64_t granted = kWindow;
  for (int i = 0; i < 400 && read < 256 * 1024; ++i) {
    read += pair.client->consume_stream(a, 4 * 1024).size();
    if (granted - read < kWindow / 2) {
      granted = read + kWindow;
      expected_a.push_back(granted);
    }
    pair.run_for(sim::millis(5));
  }
  pair.run_for(sim::millis(100));
  EXPECT_EQ(read, 256 * 1024u);
  EXPECT_GE(expected_a.size(), 10u);
  EXPECT_EQ(grants[a], expected_a);
  EXPECT_EQ(grants[b], (std::vector<std::uint64_t>{20 * 1024 + kWindow}));
}

TEST(Connection, FlowControlBlocksWithoutConsumption) {
  WirePair::Options o = mp_options();
  o.server_config.params.initial_max_data = 64 * 1024;
  o.server_config.params.initial_max_stream_data = 32 * 1024;
  // (limits the server's grants to the client sender)
  WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::pattern_bytes(256 * 1024), true);
  pair.run_for(sim::seconds(3));
  auto* stream = pair.server->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  // Nothing consumed: at most the stream window may arrive.
  EXPECT_LE(stream->contiguous_received(), 32 * 1024u + kMaxPacketPayload);
  EXPECT_FALSE(stream->fully_received());
}

TEST(Connection, RecoversFromBurstLoss) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  // Drop every server->client packet for 200ms in the middle of a
  // transfer.
  bool dropping = false;
  pair.drop_server_to_client = [&dropping](PathId, const net::Datagram&) {
    return dropping;
  };
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  const auto payload = test::pattern_bytes(200 * 1024, 5);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::millis(30));
  dropping = true;
  pair.run_for(sim::millis(200));
  dropping = false;
  // Give loss detection and retransmission time to finish the job. The
  // read that reaches the FIN retires the stream, so progress is what the
  // application read.
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, payload);
  EXPECT_GT(pair.server->stats().packets_lost +
                pair.server->stats().retransmitted_bytes,
            0u);
}

TEST(Connection, AbandonPathRescuesInFlightData) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  ASSERT_EQ(pair.client->active_path_ids().size(), 2u);

  // Black-hole path 1 and start a transfer, then abandon path 1.
  bool blackhole = false;
  pair.drop_server_to_client = [&blackhole](PathId path,
                                            const net::Datagram&) {
    return blackhole && path == 1;
  };
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  blackhole = true;
  const auto payload = test::pattern_bytes(300 * 1024, 7);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::millis(120));
  pair.server->abandon_path(1);
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, payload);
}

// An abandoned path's rescued packets stay in its ledger: a late ACK for
// one still proves the path round-trips (RTT sample, PTO reset), but the
// payload already travels elsewhere, so the ACK touches no stream, window
// or loss count -- not even for the older records it declares lost.
TEST(Connection, LateAckForRescuedPacketFeedsOnlyTheLedger) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  ASSERT_EQ(pair.server->active_path_ids().size(), 2u);

  Connection& server = *pair.server;
  PathState& p0 = server.path_state(0);
  PathState& p1 = server.path_state(1);
  for (int i = 0; i < 20; ++i) {
    p0.rtt.on_sample(sim::millis(500), 0);
    p1.rtt.on_sample(sim::millis(20), 0);
  }
  // Nothing the server sends from here on arrives.
  pair.drop_server_to_client = [](PathId, const net::Datagram&) {
    return true;
  };
  const PacketNumber first_data_pn = p1.next_pn;
  const std::size_t len = 6000;
  server.stream_send(0, test::pattern_bytes(len), false);
  const PacketNumber largest = p1.next_pn - 1;
  ASSERT_GE(largest, first_data_pn + kPacketThreshold);

  server.abandon_path(1);
  const std::size_t cwnd = p1.cc->cwnd_bytes();
  const std::uint64_t lost = server.stats().packets_lost;
  const std::uint64_t path_lost = p1.packets_lost;
  const std::size_t in_flight = p1.loss.bytes_in_flight();
  EXPECT_GT(in_flight, 0u);
  p1.pto_count = 2;
  pair.run_for(sim::millis(200));

  AckMpFrame ack;
  ack.path_id = 1;
  ack.info.ranges = {AckRange{largest, largest}};
  harness::HostilePeer peer(server);
  peer.inject(0, {Frame{ack}});

  EXPECT_FALSE(server.is_closed());
  EXPECT_EQ(p1.pto_count, 0u);
  EXPECT_EQ(p1.last_ack_received, pair.loop.now());
  EXPECT_GE(p1.rtt.latest(), sim::millis(200));
  EXPECT_LT(p1.loss.bytes_in_flight(), in_flight);
  EXPECT_EQ(p1.cc->cwnd_bytes(), cwnd);
  EXPECT_EQ(server.stats().packets_lost, lost);
  EXPECT_EQ(p1.packets_lost, path_lost);
  ASSERT_NE(server.send_stream(0), nullptr);
  EXPECT_FALSE(server.send_stream(0)->range_acked(0, 1));
}

TEST(Connection, MigrationMovesTrafficAndResetsCwnd) {
  WirePair::Options o;  // single-path configs (CM is base QUIC)
  WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));  // NCIDs

  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  const auto payload = test::pattern_bytes(100 * 1024, 2);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::millis(60));

  pair.client->migrate_to_path(1);
  pair.run_for(sim::millis(30));
  EXPECT_EQ(pair.client->path_state(0).state, PathState::State::kAbandoned);
  EXPECT_TRUE(pair.client->has_path(1));

  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100 && received.size() < payload.size(); ++i) {
    pair.run_for(sim::millis(50));
    auto chunk = pair.client->consume_stream(id, 1 << 20);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, payload);
  // Server learned about the abandon and stopped using path 0.
  EXPECT_EQ(pair.server->path_state(0).state, PathState::State::kAbandoned);
}

TEST(Connection, QoeSignalsReachServerViaAcks) {
  WirePair::Options o = mp_options();
  WirePair pair(std::move(o));
  QoeSignal signal{123456, 60, 2'000'000, 30};
  pair.client->set_qoe_provider([&]() { return signal; });
  std::optional<QoeSignal> seen;
  pair.server->on_qoe_feedback = [&](const QoeSignal& q) { seen = q; };
  ASSERT_TRUE(pair.establish());
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  pair.server->stream_send(id, test::pattern_bytes(50 * 1024), true);
  pair.run_for(sim::seconds(1));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, signal);
  EXPECT_EQ(pair.server->latest_peer_qoe(), signal);
}

TEST(Connection, StandaloneQoeControlSignalsFrame) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  std::optional<QoeSignal> seen;
  pair.server->on_qoe_feedback = [&](const QoeSignal& q) { seen = q; };
  pair.client->send_qoe_signal(QoeSignal{1, 2, 3, 4});
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, (QoeSignal{1, 2, 3, 4}));
}

TEST(Connection, TamperedDatagramsCountAuthFailures) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  // Deliver a corrupted datagram directly.
  net::Datagram garbage{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 1, 9, 9,
                        9, 9, 9, 9, 9, 9, 9};
  const auto before = pair.server->stats().auth_failures;
  pair.server->on_datagram(0, std::move(garbage));
  EXPECT_EQ(pair.server->stats().auth_failures, before + 1);
}

TEST(Connection, MismatchedKeysNeverEstablish) {
  WirePair::Options o;
  o.client_config.aead_key = 1;
  o.server_config.aead_key = 2;
  WirePair pair(std::move(o));
  EXPECT_FALSE(pair.establish(sim::millis(500)));
  EXPECT_GT(pair.server->stats().auth_failures, 0u);
}

TEST(Connection, CloseStopsTraffic) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.client->close(0, "done");
  pair.run_for(sim::millis(100));
  EXPECT_TRUE(pair.client->is_closed());
  EXPECT_TRUE(pair.server->is_closed());
  // Writes after close are ignored.
  const StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::pattern_bytes(1000), true);
  const auto sent_before = pair.packets_c2s;
  pair.run_for(sim::millis(200));
  EXPECT_EQ(pair.packets_c2s, sent_before);
}

TEST(Connection, PathStatusStandbyHonoured) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  pair.client->set_path_status(1, PathStatusKind::kStandby);
  pair.run_for(sim::millis(100));
  EXPECT_EQ(pair.server->path_state(1).state, PathState::State::kStandby);
  // Standby paths are excluded from active scheduling.
  const PathList active = pair.server->active_path_ids();
  EXPECT_EQ(std::vector<PathId>(active.begin(), active.end()),
            (std::vector<PathId>{0}));
}

TEST(Connection, StatsTrackRedundancy) {
  WirePair pair(mp_options());
  ASSERT_TRUE(pair.establish());
  Connection::Stats stats = pair.server->stats();
  stats.stream_bytes_sent = 1000;
  stats.reinjected_bytes = 150;
  EXPECT_DOUBLE_EQ(stats.redundancy_ratio(), 0.15);
}

}  // namespace
}  // namespace xlink::quic
