// Allocation guard for the packet datapath.
//
// Replaces global operator new/delete with counting wrappers (binary-wide;
// this is why the suite lives in its own test executable) and asserts the
// zero-allocation claims of the pooled datapath:
//   1. a sealed send -> link -> open round trip performs ZERO heap
//      allocations once the buffer pool, ring queues and scratch vectors
//      are warm;
//   2. per-packet bookkeeping -- the sent-packet queue, acks, loss
//      detection and the scheduler's path walks -- is allocation-free once
//      warm, and a full end-to-end session stays within a small allocation
//      budget per packet (what remains is per-ACK range lists and per-read
//      vectors; it must not scale with payload bytes or regress silently);
//   3. a long session's peak live heap stays bounded: stream memory
//      follows the protocol windows, not the video's length.
//
// The wrappers forward to std::malloc/std::free, which keeps ASan's
// malloc-level checking intact when this binary is built sanitized; live
// bytes are the malloc_usable_size of every block not yet freed.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/xlink_scheduler.h"
#include "fec/framer.h"
#include "harness/scenario.h"
#include "net/link.h"
#include "net/packet_buffer.h"
#include "quic/delivery_rate.h"
#include "quic/frame.h"
#include "quic/loss_detection.h"
#include "quic/pacer.h"
#include "quic/packet.h"
#include "quic/stream.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "test_support.h"
#include "trace/synthetic.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted(void* p) {
  if (!p) return p;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted(std::malloc(size ? size : 1))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size ? size : 1));
}

void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}

void operator delete(void* p) noexcept {
  if (p) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace xlink {
namespace {

/// Steady-state seal -> fixed-rate Link -> parse/open/parse_frames round trip
/// must be completely allocation-free once every pool is warm.
TEST(AllocGuard, WarmPacketRoundTripIsAllocationFree) {
  sim::EventLoop loop;
  net::LinkConfig cfg;
  net::Link link(loop, 1e9, cfg, sim::Rng(1));

  quic::PacketProtection aead(0x5eed);
  std::vector<std::uint8_t> payload_src(1200, 0xab);
  std::vector<quic::Frame> send_frames;
  std::vector<quic::Frame> recv_frames;
  std::uint64_t delivered = 0;

  link.set_receiver([&](net::Datagram d) {
    const auto pkt = quic::parse_packet_view(d.span());
    ASSERT_TRUE(pkt.has_value());
    const auto payload = quic::open_packet_in_place(aead, *pkt);
    ASSERT_TRUE(payload.has_value());
    recv_frames.clear();
    ASSERT_TRUE(quic::parse_frames_into(*payload, recv_frames));
    ASSERT_EQ(recv_frames.size(), 1u);
    ++delivered;
  });

  quic::PacketNumber pn = 0;
  const auto send_one = [&] {
    quic::StreamFrame f;
    f.stream_id = 4;
    f.offset = pn * payload_src.size();
    f.data = quic::FrameData::borrowed(payload_src);
    send_frames.clear();
    send_frames.emplace_back(std::move(f));
    quic::PacketHeader h;
    h.cid_sequence = 0;
    h.packet_number = pn++;
    link.send(quic::seal_packet_buffer(aead, h, send_frames));
  };

  // Warm-up: fills the thread-local buffer pool, the link's ring queue,
  // the event loop's slab and both scratch frame vectors.
  for (int i = 0; i < 64; ++i) {
    send_one();
    loop.run();
  }
  ASSERT_EQ(delivered, 64u);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 256; ++i) {
    send_one();
    loop.run();
  }
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(delivered, 64u + 256u);
  EXPECT_EQ(after - before, 0u)
      << "warm packet round trip allocated " << (after - before) << " times";

  const auto& pool = net::PacketBufferPool::local().counters();
  EXPECT_GT(pool.pool_hits, 0u);
}

/// Pipelined variant: many packets in flight inside the link queue at
/// once, so pooled buffers are recycled out of order.
TEST(AllocGuard, WarmBurstTrafficIsAllocationFree) {
  sim::EventLoop loop;
  net::LinkConfig cfg;
  net::Link link(loop, 5e7, cfg, sim::Rng(2));

  quic::PacketProtection aead(0x1234);
  std::vector<std::uint8_t> payload_src(600, 0x5a);
  std::vector<quic::Frame> send_frames;
  std::vector<quic::Frame> recv_frames;
  std::uint64_t delivered = 0;

  link.set_receiver([&](net::Datagram d) {
    const auto pkt = quic::parse_packet_view(d.span());
    ASSERT_TRUE(pkt.has_value());
    const auto payload = quic::open_packet_in_place(aead, *pkt);
    ASSERT_TRUE(payload.has_value());
    recv_frames.clear();
    ASSERT_TRUE(quic::parse_frames_into(*payload, recv_frames));
    ++delivered;
  });

  quic::PacketNumber pn = 0;
  const auto send_burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      quic::StreamFrame f;
      f.stream_id = 8;
      f.offset = pn * payload_src.size();
      f.data = quic::FrameData::borrowed(payload_src);
      send_frames.clear();
      send_frames.emplace_back(std::move(f));
      quic::PacketHeader h;
      h.cid_sequence = 1;
      h.packet_number = pn++;
      link.send(quic::seal_packet_buffer(aead, h, send_frames));
    }
    loop.run();
  };

  send_burst(32);  // warm-up
  const std::uint64_t expected_warm = delivered;

  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 8; ++round) send_burst(32);
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(delivered, expected_warm + 8 * 32);
  EXPECT_EQ(after - before, 0u)
      << "warm burst traffic allocated " << (after - before) << " times";
}

/// The FEC warm path: encode a window, emit repair frames, drop a source,
/// recover it -- all from pooled buffers and fixed scratch, so once the
/// framer, recovery stash and scratch vectors are warm the whole
/// encode -> repair -> recover loop performs ZERO heap allocations.
TEST(AllocGuard, WarmFecEncodeRecoverLoopIsAllocationFree) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_repairs = 2;
  cfg.max_repairs = 2;
  fec::FecFramer framer(cfg);
  fec::RecoveryBuffer recovery(cfg);

  std::vector<std::uint8_t> wire(900);
  std::vector<quic::Frame> repairs;
  std::vector<fec::RecoveryBuffer::Recovered> recovered;
  std::uint64_t windows_recovered = 0;

  quic::PacketNumber pn = 0;
  const auto run_window = [&] {
    const quic::PacketNumber base = pn;
    for (std::size_t i = 0; i < cfg.window; ++i, ++pn) {
      for (std::size_t b = 0; b < wire.size(); ++b)
        wire[b] = static_cast<std::uint8_t>(pn * 31 + b);
      const sim::Time now = sim::micros(pn * 500);
      repairs.clear();
      framer.on_packet_sent(1, pn, wire, now, 0.0, repairs);
      if (pn != base + 3)  // one erasure per window
        recovery.on_source(1, pn, wire, now);
      for (const quic::Frame& f : repairs) {
        const auto* rf = std::get_if<quic::RepairFrame>(&f);
        ASSERT_NE(rf, nullptr);
        recovered.clear();
        recovery.on_repair(1, *rf, now, recovered);
        windows_recovered += recovered.size();
      }
    }
  };

  for (int w = 0; w < 32; ++w) run_window();  // warm pools and scratch
  ASSERT_EQ(windows_recovered, 32u);

  const std::uint64_t before = alloc_count();
  for (int w = 0; w < 128; ++w) run_window();
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(windows_recovered, 32u + 128u);
  EXPECT_EQ(after - before, 0u)
      << "warm FEC encode->recover loop allocated " << (after - before)
      << " times";
}

/// End-to-end guard: a whole simulated session (handshake, video download,
/// acks, retransmissions, telemetry off) must stay within a bounded number
/// of allocations per packet. The bound leaves room for what still
/// allocates (each ACK's range list, each read's vector, set-up) but fails
/// loudly if a per-packet node or vector sneaks back into the datapath.
TEST(AllocGuard, FullSessionAllocationsPerPacketAreBounded) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.video.duration = sim::seconds(3);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.seed = 9;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(1, sim::seconds(10)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(2, sim::seconds(10)),
      sim::millis(80)));

  harness::Session session(std::move(cfg));
  const std::uint64_t before = alloc_count();
  const auto result = session.run();
  const std::uint64_t after = alloc_count();
  ASSERT_TRUE(result.download_finished);

  const std::uint64_t packets = session.client_conn().stats().packets_sent +
                                session.server_conn().stats().packets_sent;
  ASSERT_GT(packets, 100u);
  const double per_packet =
      static_cast<double>(after - before) / static_cast<double>(packets);
  EXPECT_LT(per_packet, 8.0)
      << "session made " << (after - before) << " allocations for " << packets
      << " packets (" << per_packet << "/packet)";
}

/// The receive-stream warm path: STREAM data lands in pooled blocks, the
/// read copies it out and hands every block the read offset passed back to
/// the pool, and in-order data only ever extends one reassembly interval --
/// so once warm the write/read/release cycle never touches the heap.
TEST(AllocGuard, WarmRecvStreamCycleIsAllocationFree) {
  quic::RecvStream stream(4);
  const std::vector<std::uint8_t> payload(1200, 0x5a);
  std::vector<std::uint8_t> out(4096);
  std::uint64_t offset = 0;
  const auto cycle = [&] {
    stream.on_data(offset, payload, false);
    stream.on_data(offset, payload, false);  // a re-injected duplicate
    offset += payload.size();
    ASSERT_EQ(stream.read(out), payload.size());
  };
  for (int i = 0; i < 64; ++i) cycle();  // warm-up: pool slots, ring storage

  const auto& pool = net::PacketBufferPool::local().counters();
  const std::uint64_t held = pool.outstanding();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 4096; ++i) cycle();  // ~4.9 MB through the stream
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(after - before, 0u)
      << "warm receive-stream cycle allocated " << (after - before)
      << " times";
  EXPECT_EQ(stream.read_offset(), offset);
  // Read blocks went back to the pool: the stream still holds at most the
  // one or two blocks straddling its read offset.
  EXPECT_LE(pool.outstanding(), held + 1);
  EXPECT_GT(pool.pool_hits, 0u);
}

/// Tier-1 soak: a 120 s video at 8 Mb/s is 120 MB of content, and every
/// byte crosses a send and a receive stream. Streams retire when done and
/// receive blocks return to the pool as they are read, so the session's
/// peak live heap stays far below the content size. The session runs on
/// its own thread so its thread-local packet pool counts from zero.
TEST(AllocGuard, LongSessionPeakHeapStaysBounded) {
  constexpr std::int64_t kPeakBound = 16 << 20;
  bool finished = false;
  std::int64_t peak = 0;
  std::thread worker([&] {
    const std::int64_t base = g_live_bytes.load(std::memory_order_relaxed);
    g_peak_live_bytes.store(base, std::memory_order_relaxed);
    {
      harness::SessionConfig cfg;
      cfg.scheme = core::Scheme::kXlink;
      cfg.seed = 12;
      cfg.time_limit = sim::seconds(240);
      cfg.video.duration = sim::seconds(120);
      cfg.video.bitrate_bps = 8'000'000;
      cfg.video.seed = 12;
      // Traces loop past their end; a 30 s period keeps them small.
      cfg.paths.push_back(harness::make_path_spec(
          net::Wireless::k5gNsa, trace::nr_5g(61, sim::seconds(30)),
          sim::millis(30)));
      cfg.paths.push_back(harness::make_path_spec(
          net::Wireless::kLte, trace::stable_lte(62, sim::seconds(30)),
          sim::millis(60)));
      harness::Session session(std::move(cfg));
      finished = session.run().download_finished;
    }
    peak = g_peak_live_bytes.load(std::memory_order_relaxed) - base;
  });
  worker.join();

  EXPECT_TRUE(finished);
  EXPECT_LT(peak, kPeakBound) << "a 120 s, 8 Mb/s session peaked at "
                              << peak / (1 << 20) << " MB of live heap";
}

/// Warm pacer + delivery-rate sampler: the per-packet stamp/ack/refill
/// arithmetic is pure integer state on POD members, so once constructed it
/// must never touch the heap.
TEST(AllocGuard, WarmPacerAndSamplerAreAllocationFree) {
  quic::DeliveryRateSampler sampler;
  quic::PacerConfig pc;
  pc.enabled = true;
  quic::Pacer pacer(pc);
  pacer.set_rate(10'000'000);

  quic::RateStamp stamp;
  sim::Time now = sim::millis(1);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 10000; ++i) {
    now += sim::micros(120);
    sampler.on_packet_sent(stamp, now, i % 7 == 0 ? 0 : 1400);
    if (i % 5 == 0) sampler.on_app_limited(1400);
    if (i % 11 == 0) sampler.on_loss(1400);
    const quic::RateSample rs = sampler.on_ack(
        stamp, 1400, now, now + sim::millis(20), sim::millis(20), 1400);
    (void)rs;
    if (pacer.can_send(now)) pacer.on_sent(now, 1400);
    (void)pacer.next_release_time(now);
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "warm pacer/sampler loop allocated " << (after - before) << " times";
}

/// The bounded-allocations contract must also hold with the pacer engaged
/// and BBR consuming rate samples: pacing gates and re-arms timers on the
/// warm path, none of which may allocate per packet.
TEST(AllocGuard, PacedBbrSessionAllocationsPerPacketAreBounded) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.video.duration = sim::seconds(3);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.seed = 11;
  cfg.options.cc = quic::CcAlgorithm::kBbr;
  cfg.options.pacing = true;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(3, sim::seconds(10)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(4, sim::seconds(10)),
      sim::millis(80)));

  harness::Session session(std::move(cfg));
  const std::uint64_t before = alloc_count();
  const auto result = session.run();
  const std::uint64_t after = alloc_count();
  ASSERT_TRUE(result.download_finished);

  const std::uint64_t packets = session.client_conn().stats().packets_sent +
                                session.server_conn().stats().packets_sent;
  ASSERT_GT(packets, 100u);
  const double per_packet =
      static_cast<double>(after - before) / static_cast<double>(packets);
  EXPECT_LT(per_packet, 8.0)
      << "paced BBR session made " << (after - before) << " allocations for "
      << packets << " packets (" << per_packet << "/packet)";
}

/// The per-packet control path once warm: packets tracked in the sent-packet
/// queue, acked out of order, declared lost by both RFC 9002 rules, and a
/// two-path pump through the XLINK scheduler, whose re-injection engine
/// walks every path and unacked queue. Queue slots, outcome lists and path
/// lists are all reused, so the cycle never touches the heap.
TEST(AllocGuard, WarmSendAckLossCycleIsAllocationFree) {
  quic::LossDetection ld;
  quic::RttEstimator rtt;
  rtt.on_sample(sim::millis(100), 0);
  const std::vector<quic::SendItem> items(2);
  quic::AckInfo upper;  // the newest pns first, then a middle block
  upper.ranges.resize(2);
  quic::AckInfo lower;  // an older block acked after newer ones
  lower.ranges.resize(1);
  quic::PacketNumber pn = 0;
  sim::Time now = 0;
  std::uint64_t lost_by_count = 0;
  std::uint64_t lost_by_time = 0;
  const auto cycle = [&] {
    const quic::PacketNumber base = pn;
    for (int i = 0; i < 16; ++i, now += sim::millis(1)) {
      quic::SentRecord& rec = ld.on_packet_sent(pn++, now, 1200, true);
      rec.ledger_only = false;
      rec.items.assign(items.begin(), items.end());
    }
    lower.ranges[0] = {base + 5, base + 7};  // 0..4 fall by packet count
    now += sim::millis(5);
    for (const quic::LostPacket& l : ld.on_ack_received(lower, now, rtt).lost)
      lost_by_count += l.reason == quic::LossReason::kPacketThreshold;
    upper.ranges[0] = {base + 15, base + 15};
    upper.ranges[1] = {base + 8, base + 12};
    now += sim::millis(5);
    ld.on_ack_received(upper, now, rtt);
    now += sim::millis(150);  // 13 and 14 fall by time
    for (const quic::LostPacket& l : ld.detect_losses(now, rtt))
      lost_by_time += l.reason == quic::LossReason::kTimeThreshold;
  };
  for (int i = 0; i < 16; ++i) cycle();  // warm-up: ring and outcome storage
  ASSERT_EQ(lost_by_count, 16u * 5u);
  ASSERT_EQ(lost_by_time, 16u * 2u);

  // Two paths under the XLINK scheduler with re-injection always allowed.
  // The server's data goes out on both paths and nothing comes back, so
  // every pump walks both unacked queues.
  test::WirePair::Options opts;
  opts.client_config = test::multipath_config();
  opts.server_config = test::multipath_config();
  opts.server_config.scheduler = core::make_xlink_scheduler(
      {core::DoubleThresholdConfig{0, 0, core::ControlMode::kAlwaysOn},
       quic::InsertMode::kPriority});
  test::WirePair pair(std::move(opts));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));
  quic::Connection& server = *pair.server;
  ASSERT_EQ(server.schedulable_path_ids().size(), 2u);
  pair.drop_server_to_client = [](quic::PathId, const net::Datagram&) {
    return true;
  };
  server.stream_send(0, std::vector<std::uint8_t>(16 * 1024, 0x5a), false);
  for (int i = 0; i < 256; ++i) server.pump_send();  // warm-up
  ASSERT_TRUE(server.send_queue().empty());
  ASSERT_GT(server.path_state(0).loss.tracked_packets(), 0u);
  ASSERT_GT(server.path_state(1).loss.tracked_packets(), 0u);
  const std::uint64_t packets = server.stats().packets_sent;

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 16; ++i) cycle();
  for (int i = 0; i < 256; ++i) server.pump_send();
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(lost_by_count, 32u * 5u);
  EXPECT_EQ(lost_by_time, 32u * 2u);
  EXPECT_EQ(ld.tracked_packets(), 0u);
  EXPECT_EQ(server.stats().packets_sent, packets);
  EXPECT_EQ(after - before, 0u)
      << "warm send/ack/loss cycle and pumps allocated " << (after - before)
      << " times";
}

}  // namespace
}  // namespace xlink
