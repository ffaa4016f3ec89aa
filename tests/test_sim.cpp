// Unit tests: discrete-event loop and deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"

namespace xlink::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
  EXPECT_EQ(loop.events_fired(), 3u);
}

TEST(EventLoop, SameTimestampIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ScheduleInUsesCurrentTime) {
  EventLoop loop;
  Time fired_at = 0;
  loop.schedule_at(100, [&] {
    loop.schedule_in(50, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  Time fired_at = 999;
  loop.schedule_at(100, [&] {
    loop.schedule_at(5, [&] { fired_at = loop.now(); });  // in the past
  });
  loop.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.events_fired(), 0u);
}

TEST(EventLoop, CancelUnknownIdReturnsFalse) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(12345));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<Time> fired;
  for (Time t : {10u, 20u, 30u, 40u})
    loop.schedule_at(t, [&fired, &loop] { fired.push_back(loop.now()); });
  loop.run_until(25);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(loop.now(), 25u);
  loop.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventLoop, RunUntilAdvancesTimeWithEmptyQueue) {
  EventLoop loop;
  loop.run_until(500);
  EXPECT_EQ(loop.now(), 500u);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 5; ++i)
    loop.schedule_at(static_cast<Time>(i), [&] {
      ++count;
      if (count == 2) loop.stop();
    });
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduledDuringRunFire) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_in(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
}

TEST(EventLoop, PendingCountsLiveEvents) {
  EventLoop loop;
  const EventId a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StaleIdStaysDeadAfterSlotReuse) {
  EventLoop loop;
  bool a_fired = false, b_fired = false;
  const EventId a = loop.schedule_at(10, [&] { a_fired = true; });
  loop.cancel(a);
  // The slot is reused with a fresh generation: the old handle must not
  // alias the new event.
  const EventId b = loop.schedule_at(10, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(loop.cancel(a));
  loop.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(EventLoop, CompactDropsCancelledHeapEntries) {
  // Cancelling removes the heap entry at once: nothing is left to compact,
  // and the survivors still fire in time order.
  EventLoop loop;
  std::vector<EventId> ids;
  std::vector<Time> fired;
  for (int i = 0; i < 100; ++i)
    ids.push_back(loop.schedule_at(static_cast<Time>(i + 1), [&] {
      fired.push_back(loop.now());
    }));
  for (std::size_t i = 1; i < ids.size(); i += 2) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending(), 50u);
  loop.run();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<Time>(2 * i + 1));
}

TEST(EventLoop, ScheduleCancelChurnStaysBounded) {
  // Regression: cancelled entries used to linger in the priority queue
  // until popped, so schedule+cancel churn grew memory without bound.
  EventLoop loop;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id =
        loop.schedule_at(static_cast<Time>(i % 1000 + 10), [] {});
    loop.cancel(id);
    ASSERT_EQ(loop.pending(), 0u);
  }
  loop.run();
  EXPECT_EQ(loop.events_fired(), 0u);
}

TEST(EventLoop, RescheduleChurnKeepsOneEntry) {
  // The connection's re-arm pattern: one timer moved on every pump.
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(10, [&fired] { ++fired; });
  for (int i = 0; i < 1'000'000; ++i) {
    ASSERT_TRUE(loop.reschedule(id, static_cast<Time>(i % 1000 + 10)));
    ASSERT_EQ(loop.pending(), 1u);
  }
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 1009u);  // the last time it was moved to
}

TEST(EventLoop, RescheduleToLaterEarlierAndSameTime) {
  EventLoop loop;
  std::vector<char> order;
  const EventId a = loop.schedule_at(10, [&] { order.push_back('a'); });
  const EventId b = loop.schedule_at(20, [&] { order.push_back('b'); });
  const EventId c = loop.schedule_at(30, [&] { order.push_back('c'); });
  EXPECT_TRUE(loop.reschedule(a, 40));  // later: after c
  EXPECT_TRUE(loop.reschedule(c, 5));   // earlier: first
  EXPECT_TRUE(loop.reschedule(b, 20));  // same time: stays put
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'c', 'b', 'a'}));
  EXPECT_EQ(loop.now(), 40u);
}

TEST(EventLoop, RescheduleKeepsTheIdAndCallback) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(10, [&fired] { ++fired; });
  EXPECT_TRUE(loop.reschedule(id, 50));
  loop.run_until(40);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(loop.reschedule(id, 60));  // the same handle still names it
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 60u);
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoop, RescheduledEventQueuesBehindEqualTimesScheduledBefore) {
  // FIFO among equal timestamps counts from the reschedule, exactly as
  // cancel + schedule_at would: b was scheduled for 20 before a moved
  // there, c after.
  EventLoop loop;
  std::vector<char> order;
  const EventId a = loop.schedule_at(10, [&] { order.push_back('a'); });
  loop.schedule_at(20, [&] { order.push_back('b'); });
  EXPECT_TRUE(loop.reschedule(a, 20));
  loop.schedule_at(20, [&] { order.push_back('c'); });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a', 'c'}));
}

TEST(EventLoop, RescheduleOfStaleOrFiredIdReturnsFalse) {
  EventLoop loop;
  bool b_fired = false;
  const EventId a = loop.schedule_at(10, [] {});
  EXPECT_TRUE(loop.cancel(a));
  EXPECT_FALSE(loop.reschedule(a, 20));  // cancelled
  // The slot is reused: the stale handle must not move the new event.
  const EventId b = loop.schedule_at(30, [&] { b_fired = true; });
  EXPECT_FALSE(loop.reschedule(a, 5));
  EXPECT_FALSE(loop.reschedule(12345, 5));  // never issued
  loop.run();
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(loop.now(), 30u);
  EXPECT_FALSE(loop.reschedule(b, 40));  // fired
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RescheduleFromInsideACallback) {
  EventLoop loop;
  std::vector<std::pair<char, Time>> fired;
  EventId self = 0;
  const EventId later = loop.schedule_at(
      100, [&] { fired.emplace_back('l', loop.now()); });
  const EventId past = loop.schedule_at(
      200, [&] { fired.emplace_back('p', loop.now()); });
  bool self_moved = true;
  self = loop.schedule_at(10, [&] {
    fired.emplace_back('s', loop.now());
    self_moved = loop.reschedule(self, 50);  // already fired: no-op
    loop.reschedule(later, loop.now() + 5);
    loop.reschedule(past, 3);  // before now: clamps to now
  });
  loop.run();
  EXPECT_FALSE(self_moved);
  EXPECT_EQ(fired, (std::vector<std::pair<char, Time>>{
                       {'s', 10}, {'p', 10}, {'l', 15}}));
}

TEST(EventLoop, LargeCapturesFallBackToHeapCorrectly) {
  EventLoop loop;
  std::array<std::uint64_t, 32> big{};  // 256 bytes: beyond inline storage
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 7;
  std::uint64_t sum = 0;
  loop.schedule_at(1, [big, &sum] {
    for (auto v : big) sum += v;
  });
  loop.run();
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < big.size(); ++i) expect += i * 7;
  EXPECT_EQ(sum, expect);
}

TEST(EventLoop, CancelInsideCallbackOfSameEventIsNoop) {
  EventLoop loop;
  EventId id = 0;
  bool saw_false = false;
  id = loop.schedule_at(5, [&] { saw_false = !loop.cancel(id); });
  loop.run();
  EXPECT_TRUE(saw_false);
  EXPECT_EQ(loop.events_fired(), 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(10), 10u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(Rng(1).chance(0.0));
  EXPECT_TRUE(Rng(1).chance(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.3);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  std::vector<double> vals;
  for (int i = 0; i < 10001; ++i) vals.push_back(rng.lognormal(std::log(20.0), 0.5));
  std::sort(vals.begin(), vals.end());
  EXPECT_NEAR(vals[5000], 20.0, 1.5);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng f1 = parent.fork();
  Rng f2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (f1.next_u64() == f2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(millis(3), 3000u);
  EXPECT_EQ(seconds(2), 2'000'000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(millis(250)), 250.0);
}

}  // namespace
}  // namespace xlink::sim
