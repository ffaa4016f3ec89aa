// ABR controller conformance suite (DESIGN.md §12).
//
// The three controllers are pure functions of their ladder and the fed
// input/sample sequence, so a scripted trace has an exact golden decision
// sequence. The goldens below are hand-derived from the controllers'
// tuning constants (video/abr.cpp) and the scaled 4-rung ladder; a change
// in any controller's policy must show up here as an explicit golden
// update.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/scenario.h"
#include "trace/synthetic.h"
#include "video/abr.h"

namespace xlink::video {
namespace {

// One scripted step: the inputs for decision i, then the throughput sample
// (bits/s over a 1s download) fed back after the decision -- the shape of
// the real chunk loop in http/media_client.
struct Step {
  sim::Duration buffer;
  std::uint64_t btlbw_bps;
  std::uint64_t sample_bps;  // 0 = no sample after this chunk
};

const std::vector<Step>& script() {
  static const std::vector<Step> s = {
      {sim::millis(0), 0, 3'200'000},
      {sim::millis(1000), 3'500'000, 3'200'000},
      {sim::millis(2500), 3'500'000, 4'800'000},
      {sim::millis(4000), 4'800'000, 4'800'000},
      {sim::millis(6500), 4'800'000, 4'800'000},
      {sim::millis(9000), 4'800'000, 800'000},
      {sim::millis(2000), 1'000'000, 800'000},
      {sim::millis(1000), 900'000, 2'400'000},
  };
  return s;
}

std::unique_ptr<AbrController> controller_for(AbrAlgorithm algo) {
  return make_abr_controller(algo, BitrateLadder::scaled(4'000'000));
}

// Runs the script, optionally with every chunk_index shifted by `shift`.
std::vector<std::size_t> run_script(AbrController& abr,
                                    std::size_t shift = 0) {
  std::vector<std::size_t> rungs;
  for (std::size_t i = 0; i < script().size(); ++i) {
    const Step& step = script()[i];
    AbrInputs in;
    in.chunk_index = i + shift;
    in.buffer_level = step.buffer;
    in.btlbw_bps = step.btlbw_bps;
    rungs.push_back(abr.choose(in).rung);
    if (step.sample_bps != 0)
      abr.on_chunk_downloaded(step.sample_bps / 8, sim::seconds(1));
  }
  return rungs;
}

TEST(AbrConformance, RateBasedGoldenSequence) {
  auto abr = controller_for(AbrAlgorithm::kRateBased);
  // EWMA (alpha .5): 3.2M, 3.2M, 4.0M, 4.4M, 4.6M, 2.7M, 1.75M; rung =
  // highest bitrate <= 0.9 * ewma.
  EXPECT_EQ(run_script(*abr),
            (std::vector<std::size_t>{0, 1, 1, 2, 2, 3, 1, 0}));
  EXPECT_EQ(abr->decisions(), 8u);
  EXPECT_EQ(abr->switches(), 5u);
  EXPECT_EQ(abr->switch_magnitude(), 6u);  // includes the 3 -> 1 drop
}

TEST(AbrConformance, BufferBasedGoldenSequence) {
  auto abr = controller_for(AbrAlgorithm::kBufferBased);
  // <= 2s -> rung 0, >= 8s -> top, linear rungs 1..top between.
  EXPECT_EQ(run_script(*abr),
            (std::vector<std::size_t>{0, 0, 1, 1, 2, 3, 0, 0}));
  EXPECT_EQ(abr->switches(), 4u);
  EXPECT_EQ(abr->switch_magnitude(), 6u);  // includes the 3 -> 0 drop
}

TEST(AbrConformance, HybridGoldenSequence) {
  auto abr = controller_for(AbrAlgorithm::kHybrid);
  // est = max(ewma, btlbw); follows the 0.85-scaled estimate while the
  // buffer grows (steps 0-5), sheds a rung per chunk once it drains thin
  // (steps 6-7, horizon < 3s and shrinking).
  EXPECT_EQ(run_script(*abr),
            (std::vector<std::size_t>{0, 1, 1, 3, 3, 3, 1, 0}));
  EXPECT_EQ(abr->switches(), 4u);
  EXPECT_EQ(abr->switch_magnitude(), 6u);
}

// Decisions may not depend on the chunk index (the discrete time axis):
// the same script shifted far from zero must produce the identical
// sequence and statistics. Guards against t=0 / index-0 sentinel aliasing
// (the PR 8 congestion-control bug class).
TEST(AbrConformance, ChunkIndexShiftInvariance) {
  for (const auto algo : {AbrAlgorithm::kRateBased, AbrAlgorithm::kBufferBased,
                          AbrAlgorithm::kHybrid}) {
    auto base = controller_for(algo);
    auto shifted = controller_for(algo);
    EXPECT_EQ(run_script(*base), run_script(*shifted, 100'000))
        << to_string(algo);
    EXPECT_EQ(base->switches(), shifted->switches()) << to_string(algo);
  }
}

// "No rate sample yet" is an explicit state, not a 0-valued sentinel: a
// genuine near-zero-rate sample must be treated as information, and
// zero-byte / zero-duration samples must not fabricate one.
TEST(AbrConformance, ZeroRateSampleIsNotASentinel) {
  auto abr = controller_for(AbrAlgorithm::kRateBased);
  abr->on_chunk_downloaded(0, sim::seconds(1));   // ignored: no information
  abr->on_chunk_downloaded(1024, 0);              // ignored: no information
  AbrInputs in;
  EXPECT_EQ(abr->choose(in).estimate_bps, 0u);    // still no sample
  abr->on_chunk_downloaded(1, sim::seconds(1));   // a real 8 bit/s sample
  const auto d = abr->choose(in);
  EXPECT_EQ(d.estimate_bps, 8u);  // estimate now exists, however small
  EXPECT_EQ(d.rung, 0u);
}

TEST(AbrConformance, FirstDecisionEstablishesRungWithoutASwitch) {
  auto abr = controller_for(AbrAlgorithm::kBufferBased);
  AbrInputs in;
  in.buffer_level = sim::seconds(10);  // first decision lands on the top
  EXPECT_EQ(abr->choose(in).rung, abr->ladder().top_rung());
  EXPECT_EQ(abr->switches(), 0u);
  EXPECT_EQ(abr->switch_magnitude(), 0u);
  in.buffer_level = 0;  // now a real switch, top -> 0
  abr->choose(in);
  EXPECT_EQ(abr->switches(), 1u);
  EXPECT_EQ(abr->switch_magnitude(), abr->ladder().top_rung());
}

// ------------------------------------------------------------------- e2e

harness::SessionConfig abr_session_config(AbrAlgorithm algo,
                                          std::uint64_t seed) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = seed;
  cfg.video.duration = sim::seconds(6);
  cfg.video.bitrate_bps = 2'400'000;
  cfg.video.seed = seed;
  cfg.client.abr = algo;
  cfg.time_limit = sim::seconds(60);
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(seed, sim::seconds(30)),
      sim::millis(30), 0.01));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed + 1, sim::seconds(30)),
      sim::millis(60), 0.01));
  return cfg;
}

TEST(AbrSession, RunsAndReportsDecisions) {
  harness::Session session(abr_session_config(AbrAlgorithm::kHybrid, 11));
  const auto r = session.run();
  EXPECT_TRUE(r.abr_enabled);
  EXPECT_TRUE(r.video_finished);
  EXPECT_TRUE(r.download_finished);
  // One decision per second of video at 30fps chunks.
  EXPECT_EQ(r.metrics.counter("session.abr.decisions"), 6u);
  EXPECT_GT(r.abr_bitrate_utility, 0.0);
  EXPECT_LE(r.abr_bitrate_utility, 1.0);
}

TEST(AbrSession, DeterministicAcrossRuns) {
  for (const auto algo : {AbrAlgorithm::kRateBased, AbrAlgorithm::kBufferBased,
                          AbrAlgorithm::kHybrid}) {
    harness::Session a(abr_session_config(algo, 23));
    harness::Session b(abr_session_config(algo, 23));
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.metrics.counter("session.abr.decisions"),
              rb.metrics.counter("session.abr.decisions"))
        << to_string(algo);
    EXPECT_EQ(ra.metrics.counter("session.abr.switches"),
              rb.metrics.counter("session.abr.switches"))
        << to_string(algo);
    EXPECT_DOUBLE_EQ(ra.abr_bitrate_utility, rb.abr_bitrate_utility)
        << to_string(algo);
    EXPECT_DOUBLE_EQ(ra.rebuffer_rate, rb.rebuffer_rate) << to_string(algo);
  }
}

TEST(AbrSession, FixedModeLeavesLegacyPathUntouched) {
  auto cfg = abr_session_config(AbrAlgorithm::kFixed, 31);
  harness::Session session(std::move(cfg));
  const auto r = session.run();
  EXPECT_FALSE(r.abr_enabled);
  EXPECT_EQ(r.metrics.counter("session.abr.decisions"), 0u);
  EXPECT_TRUE(r.video_finished);
  EXPECT_EQ(session.media_client().contiguous_bytes(),
            session.video_model().total_bytes());
}

}  // namespace
}  // namespace xlink::video
