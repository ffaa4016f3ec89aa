// Tests: multipath schedulers, the re-injection engine, the double
// thresholding controller, and QoE interpretation.
#include <gtest/gtest.h>

#include "core/double_threshold.h"
#include "core/qoe_signals.h"
#include "core/reinjection.h"
#include "core/xlink_scheduler.h"
#include "mpquic/schedulers.h"
#include "test_support.h"

namespace xlink {
namespace {

using core::ControlMode;
using core::DoubleThresholdConfig;
using core::DoubleThresholdController;
using quic::QoeSignal;
using test::WirePair;

QoeSignal qoe_with_playtime_ms(std::uint64_t ms) {
  // 30 fps; frames = ms * 30 / 1000; bytes chosen to agree.
  QoeSignal q;
  q.fps = 30;
  q.bps = 2'000'000;
  q.cached_frames = ms * 30 / 1000;
  q.cached_bytes = ms * q.bps / 8 / 1000;
  return q;
}

TEST(PlayTimeLeft, ConservativeMinimumOfBothEstimates) {
  QoeSignal q;
  q.fps = 30;
  q.cached_frames = 60;     // 2s by frames
  q.bps = 1'000'000;
  q.cached_bytes = 125'000;  // 1s by bytes
  const auto dt = core::play_time_left(q);
  ASSERT_TRUE(dt.has_value());
  EXPECT_EQ(*dt, sim::seconds(1));
}

TEST(PlayTimeLeft, FallsBackToSingleSignal) {
  QoeSignal q;
  q.fps = 30;
  q.cached_frames = 30;
  const auto dt = core::play_time_left(q);  // no bitrate info
  ASSERT_TRUE(dt.has_value());
  EXPECT_EQ(*dt, sim::seconds(1));
  QoeSignal q2;
  q2.bps = 800'000;
  q2.cached_bytes = 100'000;
  ASSERT_TRUE(core::play_time_left(q2).has_value());
  EXPECT_EQ(*core::play_time_left(q2), sim::seconds(1));
}

TEST(PlayTimeLeft, NoRatesMeansNoEstimate) {
  QoeSignal q;
  q.cached_bytes = 1000;
  q.cached_frames = 10;
  EXPECT_FALSE(core::play_time_left(q).has_value());
}

TEST(DoubleThreshold, Step2LowBufferTurnsOn) {
  DoubleThresholdController c({sim::millis(400), sim::millis(1500),
                               ControlMode::kDoubleThreshold});
  EXPECT_TRUE(c.decide(qoe_with_playtime_ms(100), sim::millis(50)));
  EXPECT_TRUE(c.decide(qoe_with_playtime_ms(399), std::nullopt));
}

TEST(DoubleThreshold, Step2HighBufferTurnsOff) {
  DoubleThresholdController c({sim::millis(400), sim::millis(1500),
                               ControlMode::kDoubleThreshold});
  EXPECT_FALSE(c.decide(qoe_with_playtime_ms(2000), sim::millis(5000)));
}

TEST(DoubleThreshold, Step3ComparesDeliverTime) {
  DoubleThresholdController c({sim::millis(400), sim::millis(1500),
                               ControlMode::kDoubleThreshold});
  // Medium buffer (800ms): on iff deliverTime_max exceeds it.
  EXPECT_TRUE(c.decide(qoe_with_playtime_ms(800), sim::millis(900)));
  EXPECT_FALSE(c.decide(qoe_with_playtime_ms(800), sim::millis(700)));
  // Nothing in flight: nothing can be late.
  EXPECT_FALSE(c.decide(qoe_with_playtime_ms(800), std::nullopt));
}

TEST(DoubleThreshold, NoFeedbackMeansUrgent) {
  DoubleThresholdController c({sim::millis(400), sim::millis(1500),
                               ControlMode::kDoubleThreshold});
  EXPECT_TRUE(c.decide(std::nullopt, std::nullopt));
}

TEST(DoubleThreshold, AblationModes) {
  DoubleThresholdController on({0, 0, ControlMode::kAlwaysOn});
  DoubleThresholdController off({0, 0, ControlMode::kAlwaysOff});
  EXPECT_TRUE(on.decide(qoe_with_playtime_ms(10000), std::nullopt));
  EXPECT_FALSE(off.decide(qoe_with_playtime_ms(0), sim::seconds(10)));
}

// ---------------------------------------------------------------- wiring

WirePair::Options two_path_pair(std::shared_ptr<quic::Scheduler> sched) {
  WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.server_config.scheduler = std::move(sched);
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  return o;
}

/// Establishes a two-path pair where server->client on path `slow` is
/// delayed far more than the other path.
struct TwoPathFixture {
  explicit TwoPathFixture(std::shared_ptr<quic::Scheduler> sched)
      : pair(two_path_pair(std::move(sched))) {
    EXPECT_TRUE(pair.establish());
    pair.run_for(sim::millis(100));
    EXPECT_TRUE(pair.client->open_path().has_value());
    pair.run_for(sim::millis(200));
    EXPECT_EQ(pair.server->active_path_ids().size(), 2u);
  }
  WirePair pair;
};

TEST(MinRttScheduler, PrefersLowerRttPath) {
  auto sched = mpquic::make_min_rtt_scheduler();
  TwoPathFixture fx(sched);
  // Make path 1 look slow by inflating its RTT estimator.
  auto& p1 = fx.pair.server->path_state(1);
  p1.rtt.on_sample(sim::millis(500), 0);
  auto& p0 = fx.pair.server->path_state(0);
  p0.rtt.on_sample(sim::millis(20), 0);
  quic::SendItem item;
  item.stream_id = 0;
  item.length = 100;
  fx.pair.server->send_queue().push_back(item);
  const auto pick = sched->select_path(*fx.pair.server);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 0u);
}

TEST(MinRttScheduler, SkipsCwndExhaustedPath) {
  auto sched = mpquic::make_min_rtt_scheduler();
  TwoPathFixture fx(sched);
  auto& p0 = fx.pair.server->path_state(0);
  p0.rtt.on_sample(sim::millis(20), 0);
  auto& p1 = fx.pair.server->path_state(1);
  p1.rtt.on_sample(sim::millis(500), 0);
  // Exhaust path 0's window.
  p0.loss.on_packet_sent(1000, 0, p0.cc->cwnd_bytes(), true);
  const auto pick = sched->select_path(*fx.pair.server);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(ReinjectionEngine, DuplicatesUnackedFromSlowPathWhenQueueDrains) {
  auto sched = core::make_xlink_scheduler(
      {DoubleThresholdConfig{0, 0, ControlMode::kAlwaysOn},
       quic::InsertMode::kPriority});
  TwoPathFixture fx(sched);
  auto& server = *fx.pair.server;
  auto& p0 = server.path_state(0);
  auto& p1 = server.path_state(1);
  // Path 0 looks fast: data lands there.
  for (int i = 0; i < 20; ++i) p0.rtt.on_sample(sim::millis(20), 0);
  for (int i = 0; i < 20; ++i) p1.rtt.on_sample(sim::millis(400), 0);
  server.stream_send(0, test::pattern_bytes(2000), false);
  fx.pair.run_for(sim::millis(1));
  quic::SentRecord* rec = nullptr;
  for (quic::SentRecord& r : p0.loss.unacked())
    if (!r.items.empty()) rec = &r;
  ASSERT_NE(rec, nullptr);
  rec->reinjected = false;
  // Now path 0 deteriorates: its packets become re-injection candidates
  // because it is no longer the fastest path.
  for (int i = 0; i < 30; ++i) p0.rtt.on_sample(sim::millis(900), 0);
  for (int i = 0; i < 30; ++i) p1.rtt.on_sample(sim::millis(30), 0);

  server.send_queue().clear();
  sched->maybe_reinject(server);
  EXPECT_TRUE(sched->last_decision());
  bool has_reinjection = false;
  for (const auto& item : server.send_queue())
    has_reinjection |= item.is_reinjection;
  EXPECT_TRUE(has_reinjection);
}

TEST(ReinjectionEngine, GatedOffByController) {
  auto sched = core::make_xlink_scheduler(
      {DoubleThresholdConfig{sim::millis(100), sim::millis(200),
                             ControlMode::kDoubleThreshold},
       quic::InsertMode::kPriority});
  TwoPathFixture fx(sched);
  auto& server = *fx.pair.server;
  // Client reports a very full buffer BEFORE the transfer starts (without
  // feedback the controller treats the buffer as empty -- start-up is when
  // re-injection matters most).
  fx.pair.client->set_qoe_provider(
      [] { return qoe_with_playtime_ms(10'000); });
  fx.pair.client->send_qoe_signal(qoe_with_playtime_ms(10'000));
  fx.pair.run_for(sim::millis(100));
  server.stream_send(0, test::pattern_bytes(20000), true);
  fx.pair.run_for(sim::seconds(1));
  EXPECT_EQ(server.stats().reinjected_bytes, 0u);
}

TEST(EnqueueItem, PriorityOrdering) {
  WirePair pair(two_path_pair(mpquic::make_min_rtt_scheduler()));
  auto& q = pair.server->send_queue();
  auto make = [](int stream_prio, int frame_prio) {
    quic::SendItem it;
    it.stream_priority = stream_prio;
    it.frame_priority = frame_prio;
    it.length = 1;
    return it;
  };
  pair.server->enqueue_item(make(0, 0), quic::InsertMode::kAppend);
  pair.server->enqueue_item(make(-1, 0), quic::InsertMode::kAppend);
  // Priority insert lands between class 0 and class -1.
  pair.server->enqueue_item(make(0, 0), quic::InsertMode::kPriority);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[1].stream_priority, 0);
  EXPECT_EQ(q[2].stream_priority, -1);
  // Front-of-class insert lands before equal-class items.
  pair.server->enqueue_item(make(0, 1), quic::InsertMode::kPriority);
  EXPECT_EQ(q.front().frame_priority, 1);  // frame priority dominates
  pair.server->enqueue_item(make(0, 0), quic::InsertMode::kFrontOfClass);
  EXPECT_EQ(q[1].frame_priority, 0);
  EXPECT_EQ(q[1].length, 1u);
}

TEST(MaxDeliverTime, UsesOnlyPathsWithUnackedData) {
  WirePair pair(two_path_pair(mpquic::make_min_rtt_scheduler()));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(200));
  EXPECT_FALSE(core::max_deliver_time(*pair.server).has_value());
  auto& p0 = pair.server->path_state(0);
  p0.rtt.on_sample(sim::millis(100), 0);
  p0.loss.on_packet_sent(99, pair.loop.now(), 1200, true);
  const auto t = core::max_deliver_time(*pair.server);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, p0.rtt.rtt_plus_var());
}

TEST(SchedulerNames, AreStable) {
  EXPECT_EQ(mpquic::make_min_rtt_scheduler()->name(), "min-rtt");
  EXPECT_EQ(mpquic::make_redundant_scheduler()->name(), "redundant");
  EXPECT_EQ(core::make_xlink_scheduler({})->name(), "xlink");
}

}  // namespace
}  // namespace xlink
