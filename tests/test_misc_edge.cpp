// Miscellaneous edge cases: tiny videos, player corner states, harness
// censoring, and path-spec plumbing.
#include <gtest/gtest.h>

#include "harness/scenario.h"
#include "trace/synthetic.h"
#include "video/player.h"

namespace xlink {
namespace {

TEST(VideoModelEdge, OneFrameVideo) {
  video::VideoSpec spec;
  spec.duration = sim::millis(33);  // exactly one frame at 30fps
  spec.fps = 30;
  spec.bitrate_bps = 1'000'000;
  video::VideoModel model(spec);
  EXPECT_EQ(model.frame_count(), 1u);
  EXPECT_EQ(model.total_bytes(), model.first_frame_bytes());
  EXPECT_EQ(model.frames_in_prefix(model.total_bytes()), 1u);
}

TEST(VideoModelEdge, SubFrameDurationStillHasOneFrame) {
  video::VideoSpec spec;
  spec.duration = sim::millis(5);
  spec.fps = 30;
  video::VideoModel model(spec);
  EXPECT_GE(model.frame_count(), 1u);
}

TEST(PlayerEdge, OneFrameVideoFinishesImmediately) {
  sim::EventLoop loop;
  video::VideoSpec spec;
  spec.duration = sim::millis(33);
  spec.fps = 30;
  video::VideoModel model(spec);
  video::VideoPlayer player(loop, model);
  player.on_contiguous_bytes(model.total_bytes());
  loop.run_until(sim::millis(100));
  EXPECT_TRUE(player.finished());
  EXPECT_TRUE(player.first_frame_latency().has_value());
}

TEST(PlayerEdge, NeverFedNeverStarts) {
  sim::EventLoop loop;
  video::VideoSpec spec;
  video::VideoModel model(spec);
  video::VideoPlayer player(loop, model);
  loop.run_until(sim::seconds(5));
  EXPECT_FALSE(player.first_frame_latency().has_value());
  EXPECT_FALSE(player.finished());
  EXPECT_DOUBLE_EQ(player.rebuffer_rate(), 0.0);  // never played: no rate
  EXPECT_EQ(player.total_play_time(), 0u);
}

TEST(PlayerEdge, ProgressNeverRegresses) {
  sim::EventLoop loop;
  video::VideoSpec spec;
  video::VideoModel model(spec);
  video::VideoPlayer player(loop, model);
  player.on_contiguous_bytes(model.frame_offset(10));
  const auto q1 = player.qoe_snapshot();
  // A stale smaller report must not shrink the buffer.
  player.on_contiguous_bytes(model.frame_offset(5));
  const auto q2 = player.qoe_snapshot();
  EXPECT_GE(q2.cached_bytes, q1.cached_bytes);
}

TEST(HarnessEdge, MakePathSpecFields) {
  auto spec = harness::make_path_spec(net::Wireless::k5gSa,
                                      trace::stable_lte(1, sim::seconds(5)),
                                      sim::millis(50), 0.01);
  EXPECT_EQ(spec.tech, net::Wireless::k5gSa);
  EXPECT_EQ(spec.one_way_delay, sim::millis(25));
  EXPECT_DOUBLE_EQ(spec.loss_rate, 0.01);
  ASSERT_TRUE(spec.down_trace.has_value());
}

TEST(HarnessEdge, TimeLimitCensorsDeadNetwork) {
  // Both paths essentially dead: the session must stop at the time limit
  // with the download censored, not hang.
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 3;
  cfg.time_limit = sim::seconds(5);
  cfg.video.duration = sim::seconds(4);
  auto dead = harness::make_path_spec(net::Wireless::kWifi, {},
                                      sim::millis(50));
  dead.down_trace.reset();
  dead.fixed_rate_mbps = 0.01;
  cfg.paths.push_back(dead);
  cfg.paths.push_back(dead);
  harness::Session session(std::move(cfg));
  const auto result = session.run();
  EXPECT_FALSE(result.download_finished);
  EXPECT_EQ(result.metrics.counter("session.chunks_completed"), 0u);
  EXPECT_GT(result.metrics.counter("session.chunks_total"), 0u);
  EXPECT_FALSE(result.chunk_rct_seconds.empty());  // censored entries
  for (double t : result.chunk_rct_seconds) EXPECT_LE(t, 5.1);
}

TEST(HarnessEdge, PlainDownloadWithoutPlayer) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kVanillaMp;
  cfg.with_player = false;
  cfg.seed = 4;
  cfg.video.duration = sim::seconds(2);
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(9, sim::seconds(10)),
      sim::millis(40)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(10, sim::seconds(10)),
      sim::millis(80)));
  harness::Session session(std::move(cfg));
  const auto result = session.run();
  EXPECT_TRUE(result.download_finished);
  EXPECT_FALSE(result.first_frame_seconds.has_value());
  EXPECT_FALSE(result.video_finished);
  EXPECT_GT(result.download_seconds, 0.0);
}

}  // namespace
}  // namespace xlink
