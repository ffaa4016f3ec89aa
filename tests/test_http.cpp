// Tests: HTTP range protocol, media server and media client over a real
// connection pair.
#include <gtest/gtest.h>

#include "harness/scenario.h"
#include "http/media_client.h"
#include "http/media_server.h"
#include "http/range_protocol.h"
#include "mpquic/schedulers.h"
#include "test_support.h"
#include "trace/synthetic.h"

namespace xlink::http {
namespace {

TEST(RangeProtocol, Roundtrip) {
  RangeRequest req{"video-7", 1024, 4096};
  const auto parsed = parse_request(encode_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, req);
}

TEST(RangeProtocol, NeedsFullLine) {
  RangeRequest req{"v", 0, 10};
  auto bytes = encode_request(req);
  bytes.pop_back();  // drop the newline
  EXPECT_FALSE(parse_request(bytes).has_value());
}

TEST(RangeProtocol, RejectsMalformed) {
  EXPECT_FALSE(parse_request(test::bytes_of("POST v 0 10\n")).has_value());
  EXPECT_FALSE(parse_request(test::bytes_of("GET v 0\n")).has_value());
  EXPECT_FALSE(parse_request(test::bytes_of("GET v x 10\n")).has_value());
  EXPECT_FALSE(parse_request(test::bytes_of("GET v 10 5\n")).has_value());
  EXPECT_FALSE(parse_request(test::bytes_of("GET a b 0 10 extra\n")).has_value());
}

struct MediaFixture {
  MediaFixture() {
    test::WirePair::Options o;
    o.client_config = test::multipath_config();
    o.server_config = test::multipath_config();
    o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
    o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
    pair = std::make_unique<test::WirePair>(std::move(o));

    video::VideoSpec spec;
    spec.duration = sim::seconds(3);
    spec.bitrate_bps = 1'500'000;
    spec.seed = 11;
    model = std::make_shared<video::VideoModel>(spec);
  }

  std::unique_ptr<test::WirePair> pair;
  std::shared_ptr<video::VideoModel> model;
};

TEST(MediaServer, ServesRangeWithCorrectBytes) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  server.add_video("v", fx.model);
  ASSERT_TRUE(fx.pair->establish());

  const quic::StreamId id = fx.pair->client->open_stream();
  fx.pair->client->stream_send(id, encode_request({"v", 100, 5000}), true);
  fx.pair->run_for(sim::seconds(1));

  auto* stream = fx.pair->client->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->fully_received());
  const auto body = fx.pair->client->consume_stream(id, 1 << 20);
  ASSERT_EQ(body.size(), 4900u);
  for (std::size_t i = 0; i < body.size(); ++i)
    ASSERT_EQ(body[i], fx.model->byte_at(100 + i)) << "mismatch at " << i;
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.bytes_served(), 4900u);
}

TEST(MediaServer, UnknownResourceGetsEmptyBody) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  ASSERT_TRUE(fx.pair->establish());
  const quic::StreamId id = fx.pair->client->open_stream();
  fx.pair->client->stream_send(id, encode_request({"nope", 0, 100}), true);
  fx.pair->run_for(sim::seconds(1));
  auto* stream = fx.pair->client->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->final_size().has_value());
  EXPECT_EQ(*stream->final_size(), 0u);
}

TEST(MediaServer, RangeClampsToVideoEnd) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  server.add_video("v", fx.model);
  ASSERT_TRUE(fx.pair->establish());
  const std::uint64_t total = fx.model->total_bytes();
  const quic::StreamId id = fx.pair->client->open_stream();
  fx.pair->client->stream_send(
      id, encode_request({"v", total - 100, total + 5000}), true);
  fx.pair->run_for(sim::seconds(1));
  auto* stream = fx.pair->client->recv_stream(id);
  ASSERT_TRUE(stream && stream->final_size().has_value());
  EXPECT_EQ(*stream->final_size(), 100u);
}

TEST(MediaServer, FirstFramePriorityMarksSendStream) {
  MediaFixture fx;
  MediaServer::Config cfg;
  cfg.first_frame_acceleration = true;
  MediaServer server(*fx.pair->server, cfg);
  server.add_video("v", fx.model);
  ASSERT_TRUE(fx.pair->establish());
  const quic::StreamId id = fx.pair->client->open_stream();
  fx.pair->client->stream_send(
      id, encode_request({"v", 0, fx.model->total_bytes()}), true);
  fx.pair->run_for(sim::millis(50));
  auto* send = fx.pair->server->send_stream(id);
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->frame_priority_at(0), MediaServer::kFirstFramePriority);
  EXPECT_EQ(send->frame_priority_at(fx.model->first_frame_bytes() - 1),
            MediaServer::kFirstFramePriority);
  EXPECT_EQ(send->frame_priority_at(fx.model->first_frame_bytes()), 0);
}

TEST(MediaClient, DownloadsWholeVideoInChunks) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  server.add_video("video", fx.model);
  MediaClient::Config ccfg;
  ccfg.chunk_bytes = 64 * 1024;
  ccfg.max_concurrent = 2;
  ccfg.verify_content = true;
  MediaClient client(*fx.pair->client, *fx.model, ccfg);

  bool done = false;
  client.on_all_done = [&] { done = true; };
  ASSERT_TRUE(fx.pair->establish());
  client.start();
  for (int i = 0; i < 400 && !done; ++i) fx.pair->run_for(sim::millis(50));
  ASSERT_TRUE(done);
  EXPECT_TRUE(client.all_done());
  EXPECT_EQ(client.contiguous_bytes(), fx.model->total_bytes());
  EXPECT_EQ(client.content_mismatches(), 0u);
  const auto rcts = client.completion_times_seconds();
  EXPECT_EQ(rcts.size(), client.chunk_metrics().size());
  for (double t : rcts) EXPECT_GT(t, 0.0);
}

TEST(MediaClient, RespectsConcurrencyLimit) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  server.add_video("video", fx.model);
  MediaClient::Config ccfg;
  ccfg.chunk_bytes = 32 * 1024;
  ccfg.max_concurrent = 2;
  MediaClient client(*fx.pair->client, *fx.model, ccfg);
  ASSERT_TRUE(fx.pair->establish());
  client.start();
  fx.pair->run_for(sim::millis(1));
  // Only the first two chunk requests may be outstanding.
  std::size_t issued = 0;
  for (const auto& m : client.chunk_metrics())
    if (!m.completed_at) ++issued;
  EXPECT_LE(issued, 2u);
}

TEST(MediaClient, DownloadsMoreChunksThanTheServerStreamBudget) {
  // 20 s at 4 Mb/s in 8 KiB chunks: more chunk streams than the server's
  // open-stream budget. Served request streams retire, so the budget
  // bounds the requests in flight, not the video's length.
  harness::SessionConfig cfg;
  cfg.seed = 3;
  cfg.video.duration = sim::seconds(20);
  cfg.video.bitrate_bps = 4'000'000;
  cfg.video.seed = 3;
  cfg.client.chunk_bytes = 8 * 1024;
  cfg.time_limit = sim::seconds(120);
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(31, sim::seconds(30)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(32, sim::seconds(30)),
      sim::millis(60)));
  const auto max_concurrent =
      static_cast<std::uint64_t>(cfg.client.max_concurrent);
  harness::Session session(std::move(cfg));
  const quic::Connection& server = session.server_conn();
  ASSERT_GT(session.media_client().chunk_count(),
            server.config().budgets.max_open_recv_streams);

  const auto result = session.run();
  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(server.guard_counters().violations, 0u);
  EXPECT_LE(server.guard_counters().peak_open_recv_streams, max_concurrent);
}

TEST(MediaClient, FeedsPlayerContiguousProgress) {
  MediaFixture fx;
  MediaServer server(*fx.pair->server, {});
  server.add_video("video", fx.model);
  MediaClient::Config ccfg;
  ccfg.chunk_bytes = 64 * 1024;
  MediaClient client(*fx.pair->client, *fx.model, ccfg);
  video::VideoPlayer player(fx.pair->loop, *fx.model);
  client.set_player(&player);
  ASSERT_TRUE(fx.pair->establish());
  client.start();
  for (int i = 0; i < 600 && !player.finished(); ++i)
    fx.pair->run_for(sim::millis(50));
  EXPECT_TRUE(player.finished());
  EXPECT_TRUE(player.first_frame_latency().has_value());
}

}  // namespace
}  // namespace xlink::http
