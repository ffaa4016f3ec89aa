// End-to-end smoke tests: a full video session over each transport scheme.
#include <gtest/gtest.h>

#include "harness/ab_test.h"
#include "harness/scenario.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

harness::SessionConfig small_session(core::Scheme scheme) {
  harness::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.video.duration = sim::seconds(4);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.video.fps = 30;
  cfg.client.chunk_bytes = 256 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.client.verify_content = true;
  cfg.time_limit = sim::seconds(60);
  cfg.seed = 7;

  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(11, sim::seconds(20)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(13, sim::seconds(20)),
      sim::millis(80)));
  return cfg;
}

class SchemeSmoke : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(SchemeSmoke, DownloadsAndPlaysVideo) {
  harness::Session session(small_session(GetParam()));
  const auto result = session.run();
  EXPECT_TRUE(result.download_finished)
      << core::to_string(GetParam()) << " did not finish the download";
  EXPECT_TRUE(result.video_finished);
  ASSERT_TRUE(result.first_frame_seconds.has_value());
  EXPECT_GT(*result.first_frame_seconds, 0.0);
  EXPECT_LT(*result.first_frame_seconds, 5.0);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);
  EXPECT_GT(result.metrics.counter("quic.server.stream_bytes_sent"),
            900'000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSmoke,
    ::testing::Values(core::Scheme::kSinglePath, core::Scheme::kVanillaMp,
                      core::Scheme::kMptcpLike, core::Scheme::kRedundant,
                      core::Scheme::kReinjectNoQoe, core::Scheme::kXlink,
                      core::Scheme::kConnMigration),
    [](const auto& info) {
      auto s = core::to_string(info.param);
      for (auto& c : s)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return s;
    });

TEST(MultipathSmoke, XlinkUsesBothPaths) {
  auto cfg = small_session(core::Scheme::kXlink);
  harness::Session session(cfg);
  const auto result = session.run();
  ASSERT_TRUE(result.download_finished);
  ASSERT_EQ(result.path_down_bytes.size(), 2u);
  EXPECT_GT(result.path_down_bytes[0], 0u);
  EXPECT_GT(result.path_down_bytes[1], 0u);
}

TEST(MultipathSmoke, SinglePathStaysOnPrimary) {
  auto cfg = small_session(core::Scheme::kSinglePath);
  harness::Session session(cfg);
  const auto result = session.run();
  ASSERT_TRUE(result.download_finished);
  ASSERT_EQ(result.path_down_bytes.size(), 2u);
  EXPECT_EQ(result.path_down_bytes[1], 0u);
}

}  // namespace
}  // namespace xlink
