// Property-style end-to-end tests: invariants that must hold for every
// transport scheme across a sweep of network conditions.
//
//  - Downloads complete and content is byte-exact.
//  - No AEAD authentication failures between honest endpoints.
//  - Schemes without re-injection never emit duplicate traffic.
//  - Re-injection cost stays bounded.
//  - Single-path schemes never touch the second path.
//  - The client never reads bytes the server did not serve (conservation).
#include <gtest/gtest.h>

#include "harness/scenario.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

struct SweepParam {
  core::Scheme scheme;
  double loss;
  int rtt_gap;  // secondary one-way delay multiplier
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  auto s = core::to_string(info.param.scheme);
  for (auto& c : s)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return s + "_loss" + std::to_string(static_cast<int>(info.param.loss * 1000)) +
         "_gap" + std::to_string(info.param.rtt_gap) + "_s" +
         std::to_string(info.param.seed);
}

class E2eSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(E2eSweep, InvariantsHold) {
  const SweepParam& param = GetParam();
  harness::SessionConfig cfg;
  cfg.scheme = param.scheme;
  cfg.seed = param.seed;
  cfg.video.duration = sim::seconds(4);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.video.seed = param.seed;
  cfg.client.chunk_bytes = 192 * 1024;
  cfg.client.verify_content = true;
  cfg.time_limit = sim::seconds(60);
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(param.seed, sim::seconds(20)),
      sim::millis(30), param.loss));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte,
      trace::stable_lte(param.seed + 1, sim::seconds(20)),
      sim::millis(30) * static_cast<std::uint64_t>(param.rtt_gap),
      param.loss));

  harness::Session session(std::move(cfg));
  const auto result = session.run();

  // Completion.
  EXPECT_TRUE(result.download_finished);
  EXPECT_TRUE(result.video_finished);
  // Integrity.
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);
  EXPECT_EQ(session.client_conn().stats().auth_failures, 0u);
  EXPECT_EQ(session.server_conn().stats().auth_failures, 0u);
  // Conservation: the client's contiguous bytes equal the video size.
  EXPECT_EQ(session.media_client().contiguous_bytes(),
            session.video_model().total_bytes());

  const auto& server = session.server_conn().stats();
  if (param.scheme == core::Scheme::kSinglePath ||
      param.scheme == core::Scheme::kVanillaMp ||
      param.scheme == core::Scheme::kMptcpLike) {
    EXPECT_EQ(server.reinjected_bytes, 0u)
        << "scheme must not duplicate traffic";
  }
  if (param.scheme == core::Scheme::kXlink) {
    // Cost bound: on healthy paths XLINK duplicates a small fraction.
    EXPECT_LT(server.redundancy_ratio(), 0.35);
  }
  if (param.scheme == core::Scheme::kSinglePath) {
    ASSERT_EQ(result.path_down_bytes.size(), 2u);
    EXPECT_EQ(result.path_down_bytes[1], 0u);
  }
  // Loss accounting is sane: lossy runs retransmit, lossless ones do not.
  if (param.loss == 0.0) {
    EXPECT_EQ(server.packets_lost, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByConditions, E2eSweep,
    ::testing::Values(
        SweepParam{core::Scheme::kSinglePath, 0.0, 1, 1},
        SweepParam{core::Scheme::kSinglePath, 0.01, 3, 2},
        SweepParam{core::Scheme::kVanillaMp, 0.0, 1, 3},
        SweepParam{core::Scheme::kVanillaMp, 0.01, 3, 4},
        SweepParam{core::Scheme::kVanillaMp, 0.02, 6, 5},
        SweepParam{core::Scheme::kMptcpLike, 0.01, 2, 6},
        SweepParam{core::Scheme::kRedundant, 0.01, 2, 7},
        SweepParam{core::Scheme::kReinjectNoQoe, 0.0, 2, 8},
        SweepParam{core::Scheme::kReinjectNoQoe, 0.02, 4, 9},
        SweepParam{core::Scheme::kXlink, 0.0, 1, 10},
        SweepParam{core::Scheme::kXlink, 0.01, 3, 11},
        SweepParam{core::Scheme::kXlink, 0.02, 6, 12},
        SweepParam{core::Scheme::kConnMigration, 0.01, 2, 13}),
    param_name);

// An outage mid-download must not prevent eventual completion under any
// multipath scheme; XLINK must additionally keep the stall shorter than
// vanilla on the same conditions.
TEST(E2eOutage, XlinkShortensStallVsVanilla) {
  auto run = [](core::Scheme scheme) {
    harness::SessionConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = 21;
    cfg.video.duration = sim::seconds(10);
    cfg.video.bitrate_bps = 3'000'000;
    cfg.client.chunk_bytes = 256 * 1024;
    cfg.time_limit = sim::seconds(60);
    cfg.wireless_aware_primary = false;
    std::vector<std::pair<double, sim::Duration>> wifi_rate{
        {10.0, sim::millis(1200)},
        {0.05, sim::millis(2500)},
        {10.0, sim::seconds(26)}};
    std::vector<std::uint32_t> ms;
    double credit = 0;
    std::uint64_t t = 0;
    for (auto& [mbps, d] : wifi_rate) {
      for (std::uint64_t i = 0; i < d / sim::kMillisecond; ++i) {
        ++t;
        credit += mbps * 1e6 / 8 / 1500 / 1000;
        while (credit >= 1) {
          ms.push_back(static_cast<std::uint32_t>(t));
          credit -= 1;
        }
      }
    }
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kWifi, trace::LinkTrace(ms), sim::millis(40)));
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kLte,
        trace::constant_rate_trace(5.0, sim::seconds(30)),
        sim::millis(90)));
    harness::Session session(std::move(cfg));
    return session.run();
  };
  const auto vanilla = run(core::Scheme::kVanillaMp);
  const auto xlink = run(core::Scheme::kXlink);
  EXPECT_TRUE(vanilla.download_finished);
  EXPECT_TRUE(xlink.download_finished);
  EXPECT_LE(xlink.rebuffer_seconds, vanilla.rebuffer_seconds);
  EXPECT_GT(xlink.metrics.counter("quic.server.reinjected_bytes"), 0u);
}

}  // namespace
}  // namespace xlink
