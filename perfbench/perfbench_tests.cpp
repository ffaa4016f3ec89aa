// Tests of the benchmark's own arithmetic: nested-span self time, the
// tail-percentile rule, and the stability of the result digest.
#include <gtest/gtest.h>

#include <numeric>

#include "harness/parallel.h"
#include "perfbench.h"
#include "trace/synthetic.h"

namespace xlink::perfbench {
namespace {

TEST(SpanRecorder, SiblingChildrenAreSubtractedFromTheParent) {
  SpanRecorder r;
  r.enter(SpanKind::kClientDatagram, 0);
  r.enter(SpanKind::kNetSend, 10);
  r.leave(30);
  r.enter(SpanKind::kNetSend, 40);
  r.leave(45);
  r.leave(100);
  EXPECT_EQ(r.totals(SpanKind::kClientDatagram).self_ns, 75);
  EXPECT_EQ(r.totals(SpanKind::kClientDatagram).calls, 1u);
  EXPECT_EQ(r.totals(SpanKind::kNetSend).self_ns, 25);
  EXPECT_EQ(r.totals(SpanKind::kNetSend).calls, 2u);
  // Self times tile the outer span.
  EXPECT_EQ(r.totals(SpanKind::kClientDatagram).self_ns +
                r.totals(SpanKind::kNetSend).self_ns,
            100);
}

TEST(SpanRecorder, GrandchildIsChargedOnlyToItsDirectParent) {
  SpanRecorder r;
  r.enter(SpanKind::kServerDatagram, 0);
  r.enter(SpanKind::kServerReadable, 10);
  r.enter(SpanKind::kNetSend, 20);
  r.leave(30);
  r.leave(60);
  r.leave(100);
  EXPECT_EQ(r.totals(SpanKind::kNetSend).self_ns, 10);
  EXPECT_EQ(r.totals(SpanKind::kServerReadable).self_ns, 40);
  EXPECT_EQ(r.totals(SpanKind::kServerDatagram).self_ns, 50);
}

TEST(SpanRecorder, ConsecutiveTopLevelSpansAccumulate) {
  SpanRecorder r;
  r.enter(SpanKind::kClientReadable, 0);
  r.leave(7);
  r.enter(SpanKind::kClientReadable, 20);
  r.leave(23);
  EXPECT_EQ(r.totals(SpanKind::kClientReadable).self_ns, 10);
  EXPECT_EQ(r.totals(SpanKind::kClientReadable).calls, 2u);
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond) {
  const Tail t = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  const Tail big = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(big.value, 990.0);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(50);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 40.0);
}

TEST(TailPercentile, ElevenSamplesGiveTheMinimum) {
  const Tail t = tail_percentile(one_to(11));
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMaximum) {
  const Tail t = tail_percentile(one_to(10));
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(20), 10.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(28), 10.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(5), 10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(4), 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({}, 10.0), 0.0);
}

TEST(RepeatedTime, IgnoresSlowSpells) {
  // Ten repetitions, three of them slowed by interference.
  const std::vector<double> reps = {10.2, 31.0, 10.0, 10.4, 29.5,
                                    10.1, 10.3, 30.2, 10.6, 10.5};
  EXPECT_DOUBLE_EQ(repeated_time(reps), 10.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

harness::SessionConfig tiny_session(std::size_t i) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 11 + i;
  cfg.video.duration = sim::seconds(2);
  cfg.video.bitrate_bps = 1'000'000;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(1 + i, sim::seconds(10)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(2 + i, sim::seconds(10)),
      sim::millis(80), 0.01));
  return cfg;
}

Digest tiny_batch_digest(unsigned jobs) {
  harness::shard::GridCell cell;
  cell.label = "tiny";
  harness::shard::CellResult result;
  result.arm_a = harness::fold_day(
      harness::run_sessions_parallel(3, tiny_session, jobs));
  result.wall_seconds = 1.25;  // timing must not reach the digest
  return digest_of(cell, result);
}

TEST(Digest, RepeatsAcrossRunsAndWorkerCounts) {
  const Digest serial = tiny_batch_digest(1);
  EXPECT_TRUE(serial.round_trip);
  EXPECT_EQ(serial.hex.size(), 16u);
  EXPECT_EQ(tiny_batch_digest(1).hex, serial.hex);
  EXPECT_EQ(tiny_batch_digest(2).hex, serial.hex);
}

TEST(Digest, ChangesWithAnyOutcome) {
  harness::shard::GridCell cell;
  cell.label = "tiny";
  harness::shard::CellResult result;
  result.arm_a = harness::fold_day(
      harness::run_sessions_parallel(2, tiny_session, 1));
  const std::string base = digest_of(cell, result).hex;
  harness::shard::CellResult changed = result;
  changed.arm_a.rebuffer_rate += 1e-12;
  EXPECT_NE(digest_of(cell, changed).hex, base);
  changed = result;
  changed.arm_a.first_frame.add(0.5);
  EXPECT_NE(digest_of(cell, changed).hex, base);
}

}  // namespace
}  // namespace xlink::perfbench
