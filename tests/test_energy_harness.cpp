// Tests: energy model, wireless model, primary path selection, and the
// harness (session determinism, A/B population plumbing).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/primary_path.h"
#include "energy/energy_model.h"
#include "harness/ab_test.h"
#include "net/wireless.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

TEST(EnergyModel, ProfilesOrdering) {
  // Cellular radios burn more than Wi-Fi; 5G more than LTE's active power
  // is not guaranteed, but baseline orderings are.
  const auto wifi = energy::radio_profile(net::Wireless::kWifi);
  const auto lte = energy::radio_profile(net::Wireless::kLte);
  const auto nr = energy::radio_profile(net::Wireless::k5gNsa);
  EXPECT_LT(wifi.active_watts, lte.active_watts);
  EXPECT_LT(lte.active_watts, nr.active_watts);
  EXPECT_GT(lte.tail, wifi.tail);
}

TEST(EnergyModel, EnergyPerBitMath) {
  // One radio at 1.6W active for 10s moving 10MB:
  energy::RadioUsage usage;
  usage.tech = net::Wireless::kLte;
  usage.bytes_transferred = 10'000'000;
  usage.active_time = sim::seconds(10);
  const auto report = energy::compute_energy({usage}, 10'000'000,
                                             sim::seconds(10));
  EXPECT_NEAR(report.total_joules, 1.6 * 10, 1e-6);
  EXPECT_NEAR(report.energy_per_bit_nj, 16.0 / 80.0 * 1000, 1.0);  // 200 nJ
  EXPECT_NEAR(report.throughput_mbps, 8.0, 0.01);
}

TEST(EnergyModel, DualRadioLowersEnergyPerBitWhenFaster) {
  // Same bytes; dual finishes in half the time at double power-ish.
  energy::RadioUsage lte{net::Wireless::kLte, 20'000'000, sim::seconds(20)};
  const auto single =
      energy::compute_energy({lte}, 20'000'000, sim::seconds(20));
  energy::RadioUsage wifi{net::Wireless::kWifi, 10'000'000, sim::seconds(10)};
  energy::RadioUsage lte2{net::Wireless::kLte, 10'000'000, sim::seconds(10)};
  const auto dual =
      energy::compute_energy({wifi, lte2}, 20'000'000, sim::seconds(10));
  EXPECT_LT(dual.energy_per_bit_nj, single.energy_per_bit_nj);
  EXPECT_GT(dual.throughput_mbps, single.throughput_mbps);
}

TEST(Wireless, RttRatiosMatchPaper) {
  sim::Rng rng(4);
  std::vector<double> wifi, lte, sa;
  for (int i = 0; i < 8000; ++i) {
    wifi.push_back(sim::to_millis(net::sample_rtt(net::Wireless::kWifi, rng)));
    lte.push_back(sim::to_millis(net::sample_rtt(net::Wireless::kLte, rng)));
    sa.push_back(sim::to_millis(net::sample_rtt(net::Wireless::k5gSa, rng)));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_NEAR(median(lte) / median(wifi), 2.7, 0.4);
  EXPECT_NEAR(median(lte) / median(sa), 5.5, 0.8);
}

TEST(Wireless, CrossIspMatrixMatchesTable4) {
  EXPECT_DOUBLE_EQ(net::cross_isp_increase(net::Isp::kA, net::Isp::kA), 0.0);
  EXPECT_DOUBLE_EQ(net::cross_isp_increase(net::Isp::kA, net::Isp::kB), 0.21);
  EXPECT_DOUBLE_EQ(net::cross_isp_increase(net::Isp::kB, net::Isp::kC), 0.54);
  EXPECT_DOUBLE_EQ(net::cross_isp_increase(net::Isp::kC, net::Isp::kA), 0.39);
}

TEST(PrimaryPath, PaperOrdering) {
  using net::Wireless;
  const std::vector<Wireless> ifaces{Wireless::kLte, Wireless::kWifi,
                                     Wireless::k5gSa, Wireless::k5gNsa};
  EXPECT_EQ(core::select_primary_path(ifaces), 2u);  // 5G SA
  const auto order = core::rank_paths(ifaces);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 3, 1, 0}));
}

TEST(PrimaryPath, TieBreaksByIndex) {
  using net::Wireless;
  EXPECT_EQ(core::select_primary_path({Wireless::kWifi, Wireless::kWifi}),
            0u);
}

TEST(Harness, SessionsAreDeterministic) {
  auto make = [] {
    harness::SessionConfig cfg;
    cfg.scheme = core::Scheme::kXlink;
    cfg.seed = 99;
    cfg.video.duration = sim::seconds(3);
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kWifi, trace::campus_walk_wifi(5, sim::seconds(15)),
        sim::millis(40), 0.005));
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kLte, trace::stable_lte(6, sim::seconds(15)),
        sim::millis(90), 0.005));
    return cfg;
  };
  harness::Session a(make()), b(make());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.chunk_rct_seconds, rb.chunk_rct_seconds);
  EXPECT_EQ(ra.first_frame_seconds, rb.first_frame_seconds);
  EXPECT_EQ(ra.metrics.counter("quic.server.bytes_sent"),
            rb.metrics.counter("quic.server.bytes_sent"));
  EXPECT_EQ(ra.metrics.counter("quic.server.reinjected_bytes"),
            rb.metrics.counter("quic.server.reinjected_bytes"));
}

TEST(Harness, WirelessAwarePrimaryReordersPaths) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kSinglePath;  // uses only path 0
  cfg.seed = 7;
  cfg.video.duration = sim::seconds(2);
  // LTE first; wireless-aware selection must promote Wi-Fi to primary.
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(1, sim::seconds(10)),
      sim::millis(100)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(2, sim::seconds(10)),
      sim::millis(30)));
  harness::Session session(std::move(cfg));
  const auto r = session.run();
  ASSERT_TRUE(r.download_finished);
  EXPECT_EQ(session.network().path(0).tech(), net::Wireless::kWifi);
  EXPECT_GT(r.path_down_bytes[0], 0u);
  EXPECT_EQ(r.path_down_bytes[1], 0u);
}

TEST(Harness, DrawSessionConditionsBoundsAndDeterminism) {
  harness::PopulationConfig pop;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto cfg = harness::draw_session_conditions(pop, seed);
    EXPECT_EQ(cfg.paths.size(), 2u);
    EXPECT_EQ(cfg.paths[0].tech, net::Wireless::kWifi);
    EXPECT_TRUE(cfg.paths[1].tech == net::Wireless::kLte ||
                cfg.paths[1].tech == net::Wireless::k5gNsa);
    EXPECT_GE(cfg.video.duration, sim::seconds(8));
    EXPECT_LE(cfg.video.duration, sim::seconds(20));
    EXPECT_GE(cfg.video.bitrate_bps, 1'500'000u);
    EXPECT_LE(cfg.video.bitrate_bps, 4'000'000u);
    EXPECT_LE(cfg.paths[0].loss_rate, pop.max_loss);
  }
  const auto a = harness::draw_session_conditions(pop, 77);
  const auto b = harness::draw_session_conditions(pop, 77);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.video.bitrate_bps, b.video.bitrate_bps);
}

TEST(Harness, RunDayProducesPopulationMetrics) {
  harness::PopulationConfig pop;
  pop.sessions_per_day = 3;
  pop.time_limit = sim::seconds(60);
  const auto day =
      harness::run_day(core::Scheme::kSinglePath, {}, pop, 12345);
  EXPECT_EQ(day.sessions, 3);
  EXPECT_GT(day.rct.count(), 0u);
  EXPECT_EQ(day.first_frame.count(), 3u);
  EXPECT_DOUBLE_EQ(day.redundancy_pct, 0.0);  // SP never duplicates
}

}  // namespace
}  // namespace xlink
