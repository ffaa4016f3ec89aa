// Unit tests: emulated links, droptail queues, link loss, paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/path.h"

namespace xlink::net {
namespace {

Datagram packet_of(std::size_t n) { return Datagram(n, 0xab); }

TEST(TraceLink, DeliversAtOpportunityPlusPropagation) {
  sim::EventLoop loop;
  LinkConfig cfg;
  cfg.propagation_delay = sim::millis(5);
  Link link(loop, trace::LinkTrace({10, 20, 30}), cfg, sim::Rng(1));
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](Datagram) { arrivals.push_back(loop.now()); });
  link.send(packet_of(100));
  link.send(packet_of(100));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::millis(15));  // opportunity@10 + 5ms
  EXPECT_EQ(arrivals[1], sim::millis(25));
}

TEST(TraceLink, ConsumesOpportunitiesMonotonically) {
  sim::EventLoop loop;
  Link link(loop, trace::LinkTrace({10, 20, 30}), LinkConfig{}, sim::Rng(1));
  int delivered = 0;
  link.set_receiver([&](Datagram) { ++delivered; });
  // Send one packet, let it depart, then send another: the second must use
  // a LATER opportunity, not re-use the first.
  link.send(packet_of(50));
  loop.run_until(sim::millis(12));
  link.send(packet_of(50));
  loop.run();
  EXPECT_EQ(delivered, 2);
}

TEST(TraceLink, LoopsTraceBeyondPeriod) {
  sim::EventLoop loop;
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(loop, trace::LinkTrace({5, 10}), cfg, sim::Rng(1));
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](Datagram) { arrivals.push_back(loop.now()); });
  for (int i = 0; i < 4; ++i) link.send(packet_of(10));
  loop.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[2], sim::millis(15));  // second period: 10+5
  EXPECT_EQ(arrivals[3], sim::millis(20));
}

TEST(TraceLink, DroptailDropsWhenFull) {
  sim::EventLoop loop;
  LinkConfig cfg;
  cfg.queue_capacity_bytes = 250;
  Link link(loop, trace::LinkTrace({1000}), cfg, sim::Rng(1));
  link.set_receiver([](Datagram) {});
  link.send(packet_of(100));
  link.send(packet_of(100));
  link.send(packet_of(100));  // 300 > 250: dropped
  EXPECT_EQ(link.stats().packets_dropped_queue, 1u);
  EXPECT_EQ(link.queued_bytes(), 200u);
  loop.run();
  EXPECT_EQ(link.stats().packets_delivered, 2u);
}

TEST(FixedRateLink, SerializesAtConfiguredRate) {
  sim::EventLoop loop;
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  // 1 Mbps; a 1250-byte packet takes 10 ms.
  Link link(loop, 1e6, cfg, sim::Rng(1));
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](Datagram) { arrivals.push_back(loop.now()); });
  link.send(packet_of(1250));
  link.send(packet_of(1250));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::millis(10));
  EXPECT_EQ(arrivals[1], sim::millis(20));
}

TEST(FixedRateLink, IdleGapDoesNotAccumulateCredit) {
  sim::EventLoop loop;
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(loop, 1e6, cfg, sim::Rng(1));
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](Datagram) { arrivals.push_back(loop.now()); });
  loop.run_until(sim::millis(100));
  link.send(packet_of(1250));
  loop.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], sim::millis(110));  // starts serializing at send
}

// Sends `n` packets one millisecond apart through a link with no queueing
// and no delay, so packet i arrives at i ms; returns which were dropped.
std::vector<bool> drops_of(LinkConfig cfg, int n, std::uint64_t seed) {
  sim::EventLoop loop;
  cfg.propagation_delay = 0;
  Link link(loop, 1e9, cfg, sim::Rng(seed));
  std::vector<bool> dropped(static_cast<std::size_t>(n), true);
  link.set_receiver(
      [&](Datagram) { dropped[loop.now() / sim::millis(1)] = false; });
  for (int i = 0; i < n; ++i) {
    loop.schedule_at(sim::millis(static_cast<std::uint64_t>(i)),
                     [&link] { link.send(packet_of(100)); });
  }
  loop.run();
  EXPECT_EQ(link.stats().packets_dropped_loss,
            static_cast<std::uint64_t>(
                std::count(dropped.begin(), dropped.end(), true)));
  return dropped;
}

TEST(LinkLoss, BernoulliRate) {
  LinkConfig cfg;
  cfg.loss_rate = 0.25;
  const auto dropped = drops_of(cfg, 10000, 3);
  const auto drops = std::count(dropped.begin(), dropped.end(), true);
  EXPECT_NEAR(drops / 10000.0, 0.25, 0.02);
}

TEST(LinkLoss, NoLossNeverDrops) {
  for (const bool d : drops_of(LinkConfig{}, 100, 3)) EXPECT_FALSE(d);
}

TEST(LinkLoss, GilbertElliottBursts) {
  LinkConfig cfg;
  // Sticky bad state with certain loss inside it.
  cfg.ge_loss = GeLoss{0.05, 0.2, 0.0, 1.0};
  int drops = 0;
  int burst = 0, max_burst = 0;
  for (const bool d : drops_of(cfg, 20000, 5)) {
    if (d) {
      ++drops;
      ++burst;
      max_burst = std::max(max_burst, burst);
    } else {
      burst = 0;
    }
  }
  // Stationary bad-state probability = 0.05/(0.05+0.2) = 0.2.
  EXPECT_NEAR(drops / 20000.0, 0.2, 0.05);
  EXPECT_GE(max_burst, 5);  // losses come in runs
}

TEST(EmulatedPath, RoutesBothDirections) {
  sim::EventLoop loop;
  PathSpec spec;
  spec.fixed_rate_mbps = 10.0;
  spec.one_way_delay = sim::millis(10);
  EmulatedPath path(loop, spec, sim::Rng(1));
  int up = 0, down = 0;
  path.set_up_receiver([&](Datagram) { ++up; });
  path.set_down_receiver([&](Datagram) { ++down; });
  path.send_up(packet_of(100));
  path.send_down(packet_of(100));
  loop.run();
  EXPECT_EQ(up, 1);
  EXPECT_EQ(down, 1);
  EXPECT_EQ(path.base_rtt(), sim::millis(20));
}

TEST(EmulatedPath, TraceOnDownlinkFixedOnUplink) {
  sim::EventLoop loop;
  PathSpec spec;
  spec.down_trace = trace::LinkTrace({50});
  spec.fixed_rate_mbps = 20.0;
  spec.one_way_delay = 0;
  EmulatedPath path(loop, spec, sim::Rng(1));
  sim::Time down_at = 0;
  path.set_down_receiver([&](Datagram) { down_at = loop.now(); });
  path.send_down(packet_of(100));
  loop.run();
  EXPECT_EQ(down_at, sim::millis(50));
}

TEST(EmulatedPath, LossRateApplies) {
  sim::EventLoop loop;
  PathSpec spec;
  spec.fixed_rate_mbps = 100.0;
  spec.loss_rate = 0.5;
  spec.one_way_delay = 0;
  EmulatedPath path(loop, spec, sim::Rng(1));
  int received = 0;
  path.set_down_receiver([&](Datagram) { ++received; });
  for (int i = 0; i < 400; ++i) path.send_down(packet_of(100));
  loop.run();
  EXPECT_GT(received, 120);
  EXPECT_LT(received, 280);
  EXPECT_EQ(path.down_stats().packets_dropped_loss +
                static_cast<std::uint64_t>(received),
            400u);
}

// Pins the exact arrival sequence of an EmulatedPath under every loss
// setting a PathSpec can express, on a fixed-rate and on a trace downlink.
// The Bernoulli draw comes first (only when loss_rate > 0), then the
// Gilbert-Elliott transition and its draw, and both draws happen on every
// departure even when the first one drops: any reordering or skipped draw
// moves at least one arrival and changes the hash.
std::uint64_t arrival_hash(const PathSpec& spec, std::uint64_t seed) {
  sim::EventLoop loop;
  EmulatedPath path(loop, spec, sim::Rng(seed));
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  path.set_up_receiver([&](Datagram d) {
    mix(1);
    mix(static_cast<std::uint64_t>(loop.now()));
    mix(d.size());
  });
  path.set_down_receiver([&](Datagram d) {
    mix(2);
    mix(static_cast<std::uint64_t>(loop.now()));
    mix(d.size());
  });
  for (int i = 0; i < 400; ++i) {
    const std::size_t size = 60 + (static_cast<std::size_t>(i) * 337) % 1340;
    const sim::Time at = sim::micros(static_cast<std::uint64_t>(i) * 700 +
                                     static_cast<std::uint64_t>(i % 7) * 1900);
    loop.schedule_at(at, [&path, size, i] {
      if (i % 3 == 0) path.send_up(packet_of(size / 4 + 40));
      path.send_down(packet_of(size));
    });
  }
  loop.run();
  return h;
}

TEST(EmulatedPath, LossDrawSequenceIsPinned) {
  GeLoss ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.3;
  ge.loss_good = 0.01;
  ge.loss_bad = 0.6;
  std::vector<std::uint32_t> opportunities;
  for (std::uint32_t ms = 1; ms <= 200; ++ms)
    for (std::uint32_t k = 0; k < 1 + ms % 3; ++k) opportunities.push_back(ms);

  struct Case {
    const char* name;
    double loss_rate;
    bool ge;
    bool trace;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"none/fixed", 0.0, false, false, 0xaf09d1566f3abccaULL},
      {"bernoulli/fixed", 0.1, false, false, 0xcfc3d4580f33c088ULL},
      {"ge/fixed", 0.0, true, false, 0xef521e76b0b351a6ULL},
      {"both/fixed", 0.1, true, false, 0xe365018dae042916ULL},
      {"none/trace", 0.0, false, true, 0x01fd5f5d097c7d5fULL},
      {"bernoulli/trace", 0.1, false, true, 0x9e64c08c0ba35c8eULL},
      {"ge/trace", 0.0, true, true, 0xf475f40063e5212cULL},
      {"both/trace", 0.1, true, true, 0x5129afdb1218dd70ULL},
  };
  for (const Case& c : cases) {
    PathSpec spec;
    spec.fixed_rate_mbps = 8.0;
    spec.one_way_delay = sim::millis(7);
    spec.queue_capacity_bytes = 24 * 1024;
    spec.loss_rate = c.loss_rate;
    if (c.ge) spec.ge_loss = ge;
    if (c.trace) spec.down_trace = trace::LinkTrace(opportunities);
    EXPECT_EQ(arrival_hash(spec, 42), c.expected) << c.name;
  }
}

TEST(Network, AddsPathsAndAggregatesStats) {
  sim::EventLoop loop;
  Network net(loop, sim::Rng(2));
  PathSpec spec;
  spec.fixed_rate_mbps = 10.0;
  spec.one_way_delay = 0;
  EXPECT_EQ(net.add_path(spec), 0u);
  EXPECT_EQ(net.add_path(spec), 1u);
  EXPECT_EQ(net.path_count(), 2u);
  net.path(0).set_down_receiver([](Datagram) {});
  net.path(0).send_down(packet_of(500));
  loop.run();
  EXPECT_EQ(net.path(0).down_stats().bytes_delivered, 500u);
}

}  // namespace
}  // namespace xlink::net
