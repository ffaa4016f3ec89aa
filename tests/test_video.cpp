// Unit tests: video model, player rebuffer accounting, QoE capture.
#include <gtest/gtest.h>

#include "video/qoe_capture.h"
#include "video/video_model.h"

namespace xlink::video {
namespace {

VideoSpec spec_10s() {
  VideoSpec s;
  s.duration = sim::seconds(10);
  s.fps = 30;
  s.bitrate_bps = 2'400'000;
  s.seed = 5;
  return s;
}

TEST(VideoModel, FrameCountMatchesDuration) {
  VideoModel m(spec_10s());
  EXPECT_EQ(m.frame_count(), 300u);
  EXPECT_EQ(m.frame_interval(), sim::kSecond / 30);
}

TEST(VideoModel, TotalBytesNearBitrate) {
  VideoModel m(spec_10s());
  const double expected = 2'400'000.0 / 8 * 10;
  // The oversized first frame adds ~11 average frames of extra bytes.
  EXPECT_NEAR(static_cast<double>(m.total_bytes()), expected,
              expected * 0.15);
}

TEST(VideoModel, OffsetsAreMonotone) {
  VideoModel m(spec_10s());
  for (std::uint32_t i = 0; i < m.frame_count(); ++i) {
    EXPECT_LT(m.frame_offset(i), m.frame_offset(i + 1));
    EXPECT_GT(m.frame_size(i), 0u);
  }
  EXPECT_EQ(m.frame_offset(m.frame_count()), m.total_bytes());
}

TEST(VideoModel, FirstFrameIsLargest) {
  VideoModel m(spec_10s());
  for (std::uint32_t i = 1; i < m.frame_count(); ++i)
    EXPECT_GT(m.frame_size(0), m.frame_size(i));
}

TEST(VideoModel, ExplicitFirstFrameSizeHonoured) {
  VideoSpec s = spec_10s();
  s.first_frame_bytes = 777'777;
  VideoModel m(s);
  EXPECT_EQ(m.first_frame_bytes(), 777'777u);
}

TEST(VideoModel, FramesInPrefix) {
  VideoModel m(spec_10s());
  EXPECT_EQ(m.frames_in_prefix(0), 0u);
  EXPECT_EQ(m.frames_in_prefix(m.frame_offset(1) - 1), 0u);
  EXPECT_EQ(m.frames_in_prefix(m.frame_offset(1)), 1u);
  EXPECT_EQ(m.frames_in_prefix(m.frame_offset(5) + 1), 5u);
  EXPECT_EQ(m.frames_in_prefix(m.total_bytes()), m.frame_count());
  EXPECT_EQ(m.frames_in_prefix(m.total_bytes() + 999), m.frame_count());
}

TEST(VideoModel, ContentDeterministicAndSeedDependent) {
  VideoModel a(spec_10s()), b(spec_10s());
  VideoSpec other = spec_10s();
  other.seed = 6;
  VideoModel c(other);
  EXPECT_EQ(a.byte_at(12345), b.byte_at(12345));
  int same = 0;
  for (std::uint64_t i = 0; i < 64; ++i)
    same += a.byte_at(i) == c.byte_at(i);
  EXPECT_LT(same, 16);
}

TEST(VideoModel, FillEqualsByteAtAtEveryAlignment) {
  const VideoModel m(spec_10s());
  for (std::uint64_t start = 0; start <= 17; ++start) {
    for (std::size_t len = 0; len <= 33; ++len) {
      std::vector<std::uint8_t> out(len + 1, 0xa5);
      m.fill(start, std::span<std::uint8_t>(out.data(), len));
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(out[i], m.byte_at(start + i))
            << "start " << start << " len " << len << " byte " << i;
      EXPECT_EQ(out[len], 0xa5) << "fill wrote past its span";
    }
  }
  // Word indices beyond 32 bits.
  std::vector<std::uint8_t> far(29);
  const std::uint64_t base = (1ULL << 40) + 3;
  m.fill(base, far);
  for (std::size_t i = 0; i < far.size(); ++i)
    EXPECT_EQ(far[i], m.byte_at(base + i));
}

TEST(ChunkPlan, SplitsWithShortTail) {
  const auto plan = ChunkPlan::fixed_size(1000, 300);
  ASSERT_EQ(plan.chunks.size(), 4u);
  EXPECT_EQ(plan.chunks[0].begin, 0u);
  EXPECT_EQ(plan.chunks[0].end, 300u);
  EXPECT_EQ(plan.chunks[3].begin, 900u);
  EXPECT_EQ(plan.chunks[3].end, 1000u);
}

TEST(ChunkPlan, EmptyContentYieldsOneEmptyChunk) {
  const auto plan = ChunkPlan::fixed_size(0, 100);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].end, 0u);
}

class PlayerTest : public ::testing::Test {
 protected:
  PlayerTest() : model_(spec_10s()), player_(loop_, model_) {}
  sim::EventLoop loop_;
  VideoModel model_;
  VideoPlayer player_;
};

TEST_F(PlayerTest, FirstFrameLatencyRecordedOnStart) {
  loop_.run_until(sim::millis(500));
  EXPECT_FALSE(player_.first_frame_latency().has_value());
  player_.on_contiguous_bytes(model_.frame_offset(1));
  ASSERT_TRUE(player_.first_frame_latency().has_value());
  EXPECT_EQ(*player_.first_frame_latency(), sim::millis(500));
}

TEST_F(PlayerTest, PlaysThroughWhenFullyBuffered) {
  player_.on_contiguous_bytes(model_.total_bytes());
  bool finished_cb = false;
  player_.on_finished = [&] { finished_cb = true; };
  loop_.run_until(sim::seconds(11));
  EXPECT_TRUE(player_.finished());
  EXPECT_TRUE(finished_cb);
  EXPECT_EQ(player_.rebuffer_count(), 0u);
  EXPECT_DOUBLE_EQ(player_.rebuffer_rate(), 0.0);
  EXPECT_NEAR(sim::to_seconds(player_.total_play_time()), 10.0, 0.1);
}

TEST_F(PlayerTest, RebuffersWhenFeedStalls) {
  // Feed only the first second of frames.
  player_.on_contiguous_bytes(model_.frame_offset(30));
  loop_.run_until(sim::seconds(3));
  EXPECT_EQ(player_.rebuffer_count(), 1u);
  // ~2 seconds stalled by now.
  EXPECT_NEAR(sim::to_seconds(player_.total_rebuffer_time()), 2.0, 0.1);
  // Resume with everything: stall ends, plays to completion.
  player_.on_contiguous_bytes(model_.total_bytes());
  loop_.run_until(sim::seconds(15));
  EXPECT_TRUE(player_.finished());
  EXPECT_NEAR(sim::to_seconds(player_.total_rebuffer_time()), 2.0, 0.1);
  EXPECT_GT(player_.rebuffer_rate(), 0.15);
}

TEST_F(PlayerTest, RebufferRateDefinition) {
  player_.on_contiguous_bytes(model_.frame_offset(30));
  loop_.run_until(sim::seconds(2));  // 1s play + 1s stall
  player_.on_contiguous_bytes(model_.total_bytes());
  loop_.run_until(sim::seconds(15));
  const double rate = player_.rebuffer_rate();
  EXPECT_NEAR(rate, sim::to_seconds(player_.total_rebuffer_time()) /
                        sim::to_seconds(player_.total_play_time()),
              1e-9);
}

TEST_F(PlayerTest, BufferLevelAndQoeSnapshot) {
  player_.on_contiguous_bytes(model_.frame_offset(60));  // 2s of frames
  const auto q = player_.qoe_snapshot();
  EXPECT_EQ(q.fps, 30u);
  EXPECT_EQ(q.bps, model_.spec().bitrate_bps);
  // One frame is already rendered at start; ~59 ahead.
  EXPECT_NEAR(static_cast<double>(q.cached_frames), 59.0, 1.0);
  EXPECT_GT(q.cached_bytes, 0u);
  EXPECT_NEAR(sim::to_millis(player_.buffer_level()),
              59.0 * 1000 / 30, 40.0);
}

TEST_F(PlayerTest, StartupBufferRequirement) {
  VideoPlayer strict(loop_, model_, /*startup_buffer_frames=*/10);
  strict.on_contiguous_bytes(model_.frame_offset(5));
  // First frame is render-ready (a delivery metric), but playback has not
  // started: the startup buffer still wants 10 frames.
  EXPECT_TRUE(strict.first_frame_latency().has_value());
  EXPECT_FALSE(strict.startup_delay().has_value());
  strict.on_contiguous_bytes(model_.frame_offset(10));
  EXPECT_TRUE(strict.startup_delay().has_value());
}

TEST_F(PlayerTest, StartupDelaySplitFromFirstFrameAndRebuffer) {
  VideoPlayer strict(loop_, model_, /*startup_buffer_frames=*/30);
  strict.on_contiguous_bytes(model_.frame_offset(1));  // frame 0 ready
  ASSERT_TRUE(strict.first_frame_latency().has_value());
  EXPECT_EQ(*strict.first_frame_latency(), sim::Duration{0});
  // Wait 2 simulated seconds before the startup buffer fills: that wait is
  // startup delay, not a stall (the paper's QoE model counts it separately).
  loop_.run_until(sim::seconds(2));
  strict.on_contiguous_bytes(model_.frame_offset(30));
  ASSERT_TRUE(strict.startup_delay().has_value());
  EXPECT_EQ(*strict.startup_delay(), sim::seconds(2));
  EXPECT_EQ(strict.rebuffer_count(), 0u);
  EXPECT_EQ(strict.total_rebuffer_time(), sim::Duration{0});
  // Play time starts at playback start, so the startup wait is also
  // excluded from the rebuffer-rate denominator.
  EXPECT_EQ(strict.total_play_time(), sim::Duration{0});
}

TEST_F(PlayerTest, DefaultStartupBufferKeepsFirstFrameEqualToStartup) {
  // startup_buffer_frames == 1 (the paper's player): both metrics are the
  // same instant, preserving every pre-split first-frame result.
  loop_.run_until(sim::millis(700));
  player_.on_contiguous_bytes(model_.frame_offset(1));
  ASSERT_TRUE(player_.first_frame_latency().has_value());
  ASSERT_TRUE(player_.startup_delay().has_value());
  EXPECT_EQ(*player_.first_frame_latency(), *player_.startup_delay());
  EXPECT_EQ(*player_.startup_delay(), sim::millis(700));
}

TEST(BitrateLadder, ScaledAndRungForRate) {
  const auto ladder = BitrateLadder::scaled(4'000'000);
  ASSERT_EQ(ladder.rungs(), 4u);
  EXPECT_EQ(ladder.bitrate(0), 1'000'000u);
  EXPECT_EQ(ladder.bitrate(ladder.top_rung()), 4'000'000u);
  EXPECT_EQ(ladder.rung_for_rate(500'000), 0u);    // nothing fits: bottom
  EXPECT_EQ(ladder.rung_for_rate(1'000'000), 0u);  // exact fit counts
  EXPECT_EQ(ladder.rung_for_rate(1'999'999), 0u);
  EXPECT_EQ(ladder.rung_for_rate(2'000'000), 1u);
  EXPECT_EQ(ladder.rung_for_rate(2'999'999), 1u);
  EXPECT_EQ(ladder.rung_for_rate(3'000'000), 2u);
  EXPECT_EQ(ladder.rung_for_rate(9'000'000'000), 3u);
}

TEST(RenditionSet, SharedFrameGridScaledBytes) {
  VideoSpec top = spec_10s();
  top.first_frame_bytes = 120'000;
  RenditionSet set(top, BitrateLadder::scaled(top.bitrate_bps));
  ASSERT_EQ(set.rungs(), 4u);
  const auto& lowest = *set.model(0);
  const auto& native = *set.model(set.top_rung());
  // Same frame grid: frame k of any rung covers the same play time.
  EXPECT_EQ(lowest.frame_count(), native.frame_count());
  EXPECT_EQ(lowest.frame_interval(), native.frame_interval());
  // Lower rung, fewer bytes -- everywhere, including the I-frame.
  EXPECT_LT(lowest.total_bytes(), native.total_bytes());
  EXPECT_EQ(lowest.first_frame_bytes(), 30'000u);
  EXPECT_EQ(native.spec().bitrate_bps, top.bitrate_bps);
  // All renditions share the content seed: byte_at agrees at any offset.
  EXPECT_EQ(lowest.byte_at(4242), native.byte_at(4242));
  // ... and so does the word fill, which the server's bodies come from.
  for (std::size_t rung = 0; rung < set.rungs(); ++rung) {
    std::vector<std::uint8_t> body(301);
    set.model(rung)->fill(4242, body);
    for (std::size_t i = 0; i < body.size(); ++i)
      ASSERT_EQ(body[i], native.byte_at(4242 + i)) << "rung " << rung;
  }
}

TEST(RenditionSet, ResourceNaming) {
  EXPECT_EQ(rendition_resource("video", 3, 3), "video");  // top = base name
  EXPECT_EQ(rendition_resource("video", 0, 3), "video@0");
  EXPECT_EQ(rendition_resource("video", 2, 3), "video@2");
}

TEST_F(PlayerTest, AbrProgressDrivesPlaybackAndQoe) {
  player_.on_abr_progress(/*frames=*/60, /*bytes_ahead=*/500'000,
                          /*playhead_bps=*/600'000);
  ASSERT_TRUE(player_.startup_delay().has_value());
  const auto q = player_.qoe_snapshot();
  EXPECT_EQ(q.bps, 600'000u);       // rendition under the playhead
  EXPECT_EQ(q.cached_bytes, 500'000u);
  EXPECT_NEAR(static_cast<double>(q.cached_frames), 59.0, 1.0);
  // Stall at frame 60, then resume when more frames arrive.
  loop_.run_until(sim::seconds(3));
  EXPECT_EQ(player_.rebuffer_count(), 1u);
  player_.on_abr_progress(model_.frame_count(), 1'000'000, 2'400'000);
  loop_.run_until(sim::seconds(15));
  EXPECT_TRUE(player_.finished());
  EXPECT_EQ(player_.qoe_snapshot().bps, 2'400'000u);
}

TEST(QoeCapture, SamplesPeriodicallyAndLags) {
  sim::EventLoop loop;
  VideoModel model(spec_10s());
  VideoPlayer player(loop, model);
  QoeCapture capture(loop, player, sim::millis(100));
  // Initial sample exists immediately (tick on construction).
  loop.run_until(sim::millis(1));
  ASSERT_TRUE(capture.latest().has_value());
  EXPECT_EQ(capture.latest()->cached_frames, 0u);
  // Feed the player; the snapshot is stale until the next tick.
  player.on_contiguous_bytes(model.frame_offset(31));
  EXPECT_EQ(capture.latest()->cached_frames, 0u);
  loop.run_until(sim::millis(150));
  EXPECT_GT(capture.latest()->cached_frames, 0u);
  EXPECT_GE(capture.samples_taken(), 2u);
}

}  // namespace
}  // namespace xlink::video
