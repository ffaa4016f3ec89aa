// Perf trajectory tracker: measures the simulator's hot paths and the
// parallel experiment engine, and writes BENCH_perf.json so wall-clock,
// events/sec and sessions/sec can be compared across commits.
//
//  - event_loop_schedule_fire:   schedule 1M events, run them all
//  - event_loop_schedule_cancel: 1M armed-then-disarmed timers (the
//    retransmission-timer pattern; exercises slab + lazy compaction)
//  - event_loop_timer_mix, varint_roundtrip, ack_mp_roundtrip,
//    interval_set_add: ops/sec of the session's timer pattern, the
//    per-packet codecs and stream reassembly, each in isolation
//  - packet_datapath_roundtrip:  seal -> link -> parse/open round trips per
//    second through the pooled zero-allocation datapath, with buffer-pool
//    hit/alloc counters recorded alongside
//  - session_throughput:         small end-to-end XLINK sessions per second
//    (plus the same population with per-session tracing enabled)
//  - telemetry_trace_hook:       cost of one XLINK_TRACE hook in a tight
//    loop — compiled out (loop without the hook, the exact codegen of
//    -DXLINK_TELEMETRY=OFF), compiled in but disabled (null-sink check),
//    and enabled (ring-buffer record)
//  - fig10_threshold_sweep_serial / _parallel: the Fig. 10-style population
//    sweep as two separate records — jobs=1 and jobs=hardware_concurrency —
//    so the parallel record's speedup_vs_serial is meaningful even when the
//    environment pins XLINK_JOBS=1
//  - grid_shard:                 the cross-process grid runner end to end
//    (plan a small grid into a spool, work it, merge) with per-cell wall
//    times — tracks the sharding subsystem's overhead per commit
//  - failover_recovery:          primary-path blackout mid-download; how
//    fast the PTO budget detects the outage and how soon after the window
//    clears the path is resurrected
//  - path_health_guard:          fault-free sessions with the health state
//    machine on vs off — the delta is the hot-path cost of failover
//    bookkeeping and must stay in the noise
//  - invariant_auditor:          the same population with the runtime
//    invariant auditor on vs off (XLINK_AUDIT=0) — per-tick cost of the
//    cross-layer invariant walk; ~0 with -DXLINK_AUDIT=OFF, <5% when on
//
// Usage: bench_perf [--smoke] [output.json]
//   (default output: BENCH_perf.json in cwd; --smoke cuts iteration counts
//   for CI smoke runs -- same coverage, not comparable numbers)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fec/framer.h"
#include "harness/ab_test.h"
#include "harness/grids.h"
#include "harness/parallel.h"
#include "harness/shard.h"
#include "net/link.h"
#include "net/packet_buffer.h"
#include "quic/delivery_rate.h"
#include "quic/frame.h"
#include "quic/interval_set.h"
#include "quic/pacer.h"
#include "quic/packet.h"
#include "sim/event_loop.h"
#include "sim/thread_pool.h"
#include "telemetry/trace_sink.h"
#include "trace/synthetic.h"

using namespace xlink;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Record {
  std::string name;
  double wall_s = 0.0;
  std::string rate_key;  // e.g. "events_per_sec"; empty = none
  double rate = 0.0;
};

double bench_schedule_fire(int events, std::uint64_t& fired_out) {
  sim::EventLoop loop;
  std::uint64_t fired = 0;
  const double s = wall_seconds([&] {
    for (int i = 0; i < events; ++i)
      loop.schedule_in(static_cast<sim::Duration>(i % 9973), [&fired] {
        ++fired;
      });
    loop.run();
  });
  fired_out = fired;
  return s;
}

double bench_schedule_cancel(int events) {
  sim::EventLoop loop;
  return wall_seconds([&] {
    for (int i = 0; i < events; ++i) {
      const sim::EventId id =
          loop.schedule_in(static_cast<sim::Duration>(i % 9973 + 1), [] {});
      loop.cancel(id);
    }
  });
}

/// 256 live timers; each firing re-arms its slot and cancels the next
/// slot's timer, until `fires` timers have fired.
double bench_timer_mix(std::uint64_t fires) {
  sim::EventLoop loop;
  std::vector<sim::EventId> ids(256, 0);
  std::uint64_t fired = 0;
  std::function<void(std::size_t)> arm = [&](std::size_t slot) {
    ids[slot] = loop.schedule_in(1 + slot % 61, [&, slot] {
      ++fired;
      loop.cancel(ids[(slot + 1) % ids.size()]);
      if (fired < fires) arm(slot);
    });
  };
  return wall_seconds([&] {
    for (std::size_t s = 0; s < ids.size(); ++s) arm(s);
    loop.run();
  });
}

/// Encodes four varints of 1/2/4/8 bytes and reads them back.
double bench_varint_roundtrip(std::uint64_t iters) {
  const std::uint64_t values[] = {7, 300, 70000, 5'000'000'000ULL};
  std::uint64_t sum = 0;
  return wall_seconds([&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      quic::Writer w;
      for (std::uint64_t v : values) w.varint(v);
      quic::Reader r(w.data());
      for (int k = 0; k < 4; ++k) sum += r.varint().value_or(0);
      asm volatile("" : "+r"(sum));
    }
  });
}

/// Encodes and parses an ACK_MP frame with 8 ranges and a QoE signal.
double bench_ack_mp_roundtrip(std::uint64_t iters) {
  quic::AckMpFrame f;
  f.path_id = 1;
  for (int i = 0; i < 8; ++i)
    f.info.ranges.push_back({static_cast<quic::PacketNumber>(100 - i * 10),
                             static_cast<quic::PacketNumber>(104 - i * 10)});
  f.qoe = quic::QoeSignal{1'000'000, 120, 2'000'000, 30};
  const quic::Frame frame{f};
  std::size_t parsed = 0;
  return wall_seconds([&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      quic::Writer w;
      quic::encode_frame(frame, w);
      quic::Reader r(w.data());
      parsed += quic::parse_frame(r).has_value();
      asm volatile("" : "+r"(parsed));
    }
  });
}

/// Fills an IntervalSet with 200 ranges, evens then odds, so every odd
/// add merges two neighbours.
double bench_interval_set_add(std::uint64_t iters) {
  std::size_t count = 0;
  return wall_seconds([&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      quic::IntervalSet set;
      for (std::uint64_t k = 0; k < 200; k += 2)
        set.add(k * 100, k * 100 + 100);
      for (std::uint64_t k = 1; k < 200; k += 2)
        set.add(k * 100, k * 100 + 100);
      count += set.interval_count();
      asm volatile("" : "+r"(count));
    }
  });
}

struct DatapathPerf {
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  net::PacketBufferPool::Counters pool;  // delta over the measured loop
};

/// The pooled packet datapath in isolation: seal into a pooled buffer,
/// move through a fixed-rate link, parse/decrypt in place, parse frames
/// into a reused scratch list. After warm-up this loop performs zero heap
/// allocations (tests/test_alloc_guard.cpp proves it); the pool counter
/// delta recorded here keeps the claim visible per commit.
DatapathPerf bench_packet_datapath(std::uint64_t packets) {
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
    if (!pkt) return;
    const auto payload = quic::open_packet_in_place(aead, *pkt);
    if (!payload) return;
    recv_frames.clear();
    if (quic::parse_frames_into(*payload, recv_frames)) ++delivered;
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

  for (int i = 0; i < 256; ++i) {  // warm the pool, queues and scratch
    send_one();
    loop.run();
  }

  auto& pool = net::PacketBufferPool::local();
  pool.reset_counters();
  DatapathPerf r;
  r.packets = packets;
  r.wall_s = wall_seconds([&] {
    for (std::uint64_t i = 0; i < packets; ++i) {
      send_one();
      loop.run();
    }
  });
  r.pool = pool.counters();
  if (delivered != 256 + packets)
    std::fprintf(stderr, "bench_packet_datapath: delivered %llu != %llu\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(256 + packets));
  return r;
}

struct FecPerf {
  std::uint64_t windows = 0;
  std::uint64_t packets = 0;    // source packets fed through the framer
  std::uint64_t recovered = 0;  // erasures rebuilt (1 per window here)
  double wall_s = 0.0;
  net::PacketBufferPool::Counters pool;  // delta over the measured loop
};

/// The FEC warm path in isolation: feed k sealed-size packets per window
/// through the framer (encode), drop one source at the receiver, and let
/// the RecoveryBuffer decode it back from the repair symbols. After pool
/// warm-up this loop performs zero heap allocations
/// (tests/test_alloc_guard.cpp proves it); the pool counter delta recorded
/// here keeps the claim visible per commit.
FecPerf bench_fec_encode_decode(std::uint64_t windows) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_repairs = 2;
  cfg.max_repairs = 2;
  fec::FecFramer framer(cfg);
  fec::RecoveryBuffer recovery(cfg);

  std::vector<quic::Frame> frames;
  std::vector<fec::RecoveryBuffer::Recovered> out;
  std::vector<std::uint8_t> wire(1200);
  quic::PacketNumber pn = 0;
  std::uint64_t recovered = 0;

  const auto run_window = [&](sim::Time now) {
    const quic::PacketNumber base = pn;
    for (std::size_t i = 0; i < cfg.window; ++i) {
      for (std::size_t b = 0; b < wire.size(); ++b)
        wire[b] = static_cast<std::uint8_t>(pn * 31 + b);
      frames.clear();
      framer.on_packet_sent(0, pn, wire, now, 0.05, frames);
      if (pn != base + 3) recovery.on_source(0, pn, wire, now);  // erase #3
      ++pn;
      for (auto& fr : frames) {
        const auto& rf = std::get<quic::RepairFrame>(fr);
        out.clear();
        recovery.on_repair(0, rf, now, out);
        recovered += out.size();
      }
    }
  };

  for (int i = 0; i < 64; ++i) run_window(i);  // warm pool and stash

  auto& pool = net::PacketBufferPool::local();
  pool.reset_counters();
  const std::uint64_t warm_recovered = recovered;
  FecPerf r;
  r.windows = windows;
  r.packets = windows * cfg.window;
  r.wall_s = wall_seconds([&] {
    for (std::uint64_t i = 0; i < windows; ++i) run_window(64 + i);
  });
  out.clear();  // return the last recovered buffers before reading counters
  r.pool = pool.counters();
  r.recovered = recovered - warm_recovered;
  if (r.recovered != windows)
    std::fprintf(stderr, "bench_fec_encode_decode: recovered %llu != %llu\n",
                 static_cast<unsigned long long>(r.recovered),
                 static_cast<unsigned long long>(windows));
  return r;
}

harness::SessionConfig small_session_config(std::uint64_t seed) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.video.duration = sim::seconds(3);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.seed = seed;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(1, sim::seconds(10)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(2, sim::seconds(10)),
      sim::millis(80)));
  return cfg;
}

double bench_session_throughput(int sessions, bool traced,
                                bool path_health = true) {
  return wall_seconds([&] {
    for (int i = 0; i < sessions; ++i) {
      auto cfg = small_session_config(3 + i);
      cfg.trace.enabled = traced;
      cfg.path_health = path_health;
      harness::Session session(std::move(cfg));
      const auto r = session.run();
      (void)r;
    }
  });
}

struct FailoverRecovery {
  double detect_s = 0.0;    // blackout start -> server declares failover
  double resume_s = 0.0;    // blackout end -> path resurrected
  double download_s = 0.0;  // whole transfer, for context
};

/// Mid-download blackout on the primary path: the latency numbers the
/// failover machinery exists to minimise.
FailoverRecovery bench_failover_recovery() {
  const sim::Time blackout_start = sim::seconds(2);
  const sim::Duration blackout_len = sim::seconds(3);

  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 77;
  cfg.video.duration = sim::seconds(16);
  cfg.video.bitrate_bps = 8'000'000;
  cfg.client.chunk_bytes = 192 * 1024;
  cfg.time_limit = sim::seconds(90);
  cfg.wireless_aware_primary = false;
  cfg.trace.enabled = true;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(77, sim::seconds(40)),
      sim::millis(20)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(78, sim::seconds(40)),
      sim::millis(60)));
  for (auto& p : cfg.paths) p.queue_capacity_bytes = 256 * 1024;
  cfg.paths[0].fault_plan.blackout(blackout_start, blackout_len);

  harness::Session session(std::move(cfg));
  const auto result = session.run();

  FailoverRecovery r;
  r.download_s = result.download_seconds;
  std::optional<sim::Time> failover_at;
  std::optional<sim::Time> resurrect_at;
  for (const auto& e : session.trace_sink()->snapshot()) {
    if (e.type != telemetry::EventType::kPathHealth || e.path != 0 ||
        e.origin != telemetry::Origin::kServer)
      continue;
    if (e.a == 2 && !failover_at) failover_at = e.t;
    if (e.a == 0 && failover_at && !resurrect_at) resurrect_at = e.t;
  }
  if (failover_at) r.detect_s = sim::to_seconds(*failover_at - blackout_start);
  if (resurrect_at)
    r.resume_s =
        sim::to_seconds(*resurrect_at - (blackout_start + blackout_len));
  return r;
}

/// One XLINK_TRACE hook per iteration. With kHook=false the body is the
/// exact codegen of a -DXLINK_TELEMETRY=OFF build (macro expands to
/// nothing); the inline asm pins the sink pointer so the compiler cannot
/// hoist the null/enabled check or delete the loop.
template <bool kHook>
double trace_hook_loop(telemetry::TraceSink* sink, std::uint64_t iters) {
  return wall_seconds([&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      asm volatile("" : "+r"(sink));
      if constexpr (kHook) {
        XLINK_TRACE(sink, telemetry::Event::packet_sent(
                              i, telemetry::Origin::kServer, 0, i, 1200,
                              true, false));
      }
    }
  });
}

struct TraceHookRates {
  std::uint64_t iters = 0;
  double compiled_out = 0.0;  // ops/sec, loop without the hook
  double disabled = 0.0;      // ops/sec, hook present, sink == nullptr
  double enabled = 0.0;       // ops/sec, recording into the ring
};

TraceHookRates bench_trace_hook(std::uint64_t iters) {
  TraceHookRates r;
  r.iters = iters;
  r.compiled_out = double(r.iters) / trace_hook_loop<false>(nullptr, r.iters);
  r.disabled = double(r.iters) / trace_hook_loop<true>(nullptr, r.iters);
  telemetry::TraceSink sink(1 << 16);
  sink.set_enabled(true);
  r.enabled = double(r.iters) / trace_hook_loop<true>(&sink, r.iters);
  return r;
}

/// The delivery-rate sampler's per-packet cost: stamp at send, produce a
/// rate sample at ack, fold into the btlbw/min-RTT filters. This runs once
/// per ack-eliciting packet on every path, so it must stay in the tens of
/// nanoseconds.
double bench_rate_sampler(std::uint64_t ops) {
  quic::DeliveryRateSampler sampler;
  quic::RateStamp stamp;
  sim::Time now = 0;
  const std::size_t kBytes = quic::kDefaultMss;
  double sink = 0.0;
  const double s = wall_seconds([&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const sim::Time sent = now;
      sampler.on_packet_sent(stamp, sent, kBytes * (i % 16));
      now += 500;  // 0.5 ms between departures
      const auto rs =
          sampler.on_ack(stamp, kBytes, sent, now + sim::millis(20),
                         sim::millis(20), kBytes * (i % 16));
      sink += rs.delivery_rate;
    }
  });
  if (sink < 0.0) std::fprintf(stderr, "bench_rate_sampler: negative rate\n");
  return s;
}

/// The pacer's per-packet warm path: one can_send gate, one on_sent debit,
/// one next_release_time projection -- the exact calls the connection's
/// send pump and timer wheel make per departure.
double bench_pacer(std::uint64_t ops, std::uint64_t& sent_out) {
  quic::PacerConfig cfg;
  cfg.enabled = true;
  quic::Pacer pacer(cfg);
  pacer.set_rate(125'000'000);  // 1 Gb/s: ~11 us per MSS
  sim::Time now = 0;
  std::uint64_t sent = 0;
  const double s = wall_seconds([&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += 12;
      if (pacer.can_send(now)) {
        pacer.on_sent(now, quic::kDefaultMss);
        ++sent;
      }
      sim::Time t = pacer.next_release_time(now);
      asm volatile("" : "+r"(t));
    }
  });
  sent_out = sent;
  return s;
}

/// Fig. 10-shaped workload: per threshold setting, a fading-cellular
/// population of sessions. Scaled down from the real bench so the sweep
/// finishes quickly at jobs=1 too.
void fig10_style_sweep(unsigned jobs, int sessions) {
  const int kSessions = sessions;
  harness::PopulationConfig pop;
  pop.p_fading_cellular = 0.8;
  pop.time_limit = sim::seconds(60);
  const struct {
    double tth1_ms, tth2_ms;
  } settings[] = {{400, 900}, {900, 1800}, {1800, 3600}};
  for (const auto& s : settings) {
    core::SchemeOptions opts;
    opts.control.tth1 = static_cast<sim::Duration>(s.tth1_ms * sim::kMillisecond);
    opts.control.tth2 = static_cast<sim::Duration>(s.tth2_ms * sim::kMillisecond);
    const auto results = harness::run_sessions_parallel(
        kSessions,
        [&](std::size_t i) {
          auto cfg = harness::draw_session_conditions(pop, 555000 + i);
          cfg.scheme = core::Scheme::kXlink;
          cfg.options = opts;
          return cfg;
        },
        jobs);
    (void)results;
  }
}

struct GridShardPerf {
  std::string grid;
  std::vector<std::pair<std::string, double>> cells;  // label -> wall_s
  double plan_s = 0.0;   // grid enumeration (incl. calibration cells)
  double work_s = 0.0;   // one worker draining the spool
  double merge_s = 0.0;  // shard parse + canonical output
};

/// The sharded grid runner end to end in one process: spool plan, worker
/// drain, merge. Per-cell wall times come from the worker's report (the
/// same numbers each shard file records).
GridShardPerf bench_grid_shard() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xlink_bench_grid_spool";
  fs::remove_all(dir);

  GridShardPerf r;
  r.grid = "fig11-smoke";
  std::optional<harness::shard::Spool> spool;
  r.plan_s = wall_seconds([&] {
    const auto planned = harness::grids::build_grid(r.grid);
    spool = harness::shard::Spool::plan(planned.spec, dir.string(),
                                        planned.precomputed);
  });
  harness::shard::WorkerReport report;
  r.work_s = wall_seconds([&] { report = harness::shard::run_worker(*spool); });
  for (const auto& [index, seconds] : report.cell_wall_seconds)
    r.cells.emplace_back(spool->spec().cells[index].label, seconds);
  r.merge_s = wall_seconds([&] {
    auto results = spool->collect(nullptr);
    std::ostringstream os;
    harness::shard::write_grid_results(spool->spec(), results, os);
  });
  fs::remove_all(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: bench_perf [--smoke] [output.json]\n");
      return 2;
    } else {
      out_path = argv[i];
    }
  }
  const unsigned jobs = harness::default_jobs();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("bench_perf: jobs=%u (XLINK_JOBS overrides), output=%s%s\n",
              jobs, out_path, smoke ? " [smoke]" : "");

  // Smoke mode (CI): same code paths, ~10-20x fewer iterations. The JSON it
  // writes is for plumbing checks, not cross-commit comparison.
  const int loop_events = smoke ? 100'000 : 1'000'000;
  const std::uint64_t datapath_packets = smoke ? 20'000 : 200'000;
  const int throughput_sessions = smoke ? 4 : 24;
  const std::uint64_t hook_iters = smoke ? 2'000'000 : 50'000'000;
  const int sweep_sessions = smoke ? 3 : 10;

  std::vector<Record> records;

  std::uint64_t fired = 0;
  const double sf = bench_schedule_fire(loop_events, fired);
  records.push_back({"event_loop_schedule_fire", sf, "events_per_sec",
                     static_cast<double>(fired) / sf});
  std::printf("  event_loop_schedule_fire:   %.3fs  (%.2fM events/s)\n", sf,
              static_cast<double>(fired) / sf / 1e6);

  const double sc = bench_schedule_cancel(loop_events);
  records.push_back({"event_loop_schedule_cancel", sc, "ops_per_sec",
                     loop_events / sc});
  std::printf("  event_loop_schedule_cancel: %.3fs  (%.2fM ops/s)\n", sc,
              loop_events / sc / 1e6);

  const std::uint64_t scale = smoke ? 1 : 10;
  const struct {
    const char* name;
    double (*run)(std::uint64_t);
    std::uint64_t ops;
  } primitives[] = {
      {"event_loop_timer_mix", bench_timer_mix, 20'000 * scale},
      {"varint_roundtrip", bench_varint_roundtrip, 200'000 * scale},
      {"ack_mp_roundtrip", bench_ack_mp_roundtrip, 200'000 * scale},
      {"interval_set_add", bench_interval_set_add, 5'000 * scale},
  };
  for (const auto& p : primitives) {
    const double s = p.run(p.ops);
    const double rate = static_cast<double>(p.ops) / s;
    records.push_back({p.name, s, "ops_per_sec", rate});
    std::printf("  %-27s %.3fs  (%.1fns per op)\n",
                (std::string(p.name) + ":").c_str(), s, 1e9 / rate);
  }

  const DatapathPerf dp = bench_packet_datapath(datapath_packets);
  std::printf(
      "  packet_datapath_roundtrip:  %.3fs  (%.2fk pkts/s; pool hits %llu, "
      "slab allocs %llu, oversize %llu)\n",
      dp.wall_s, static_cast<double>(dp.packets) / dp.wall_s / 1e3,
      static_cast<unsigned long long>(dp.pool.pool_hits),
      static_cast<unsigned long long>(dp.pool.slab_allocs),
      static_cast<unsigned long long>(dp.pool.oversize_allocs));

  const std::uint64_t fec_windows = smoke ? 2'000 : 20'000;
  const FecPerf fp = bench_fec_encode_decode(fec_windows);
  std::printf(
      "  fec_encode_decode:          %.3fs  (%.2fk pkts/s, %llu windows, "
      "%llu recovered; pool hits %llu, slab allocs %llu, oversize %llu)\n",
      fp.wall_s, static_cast<double>(fp.packets) / fp.wall_s / 1e3,
      static_cast<unsigned long long>(fp.windows),
      static_cast<unsigned long long>(fp.recovered),
      static_cast<unsigned long long>(fp.pool.pool_hits),
      static_cast<unsigned long long>(fp.pool.slab_allocs),
      static_cast<unsigned long long>(fp.pool.oversize_allocs));

  const int kThroughputSessions = throughput_sessions;
  const double st = bench_session_throughput(kThroughputSessions, false);
  records.push_back({"session_throughput", st, "sessions_per_sec",
                     kThroughputSessions / st});
  std::printf("  session_throughput:         %.3fs  (%.2f sessions/s)\n", st,
              kThroughputSessions / st);

  const double stt = bench_session_throughput(kThroughputSessions, true);
  records.push_back({"session_throughput_traced", stt, "sessions_per_sec",
                     kThroughputSessions / stt});
  std::printf("  session_throughput_traced:  %.3fs  (%.2f sessions/s)\n", stt,
              kThroughputSessions / stt);

  // Fault-free guard: the same population with the path-health machinery
  // switched off. Both runs are fault-free, so any gap is pure hot-path
  // overhead from health bookkeeping (PTO budget checks, probe timers).
  const double sth = bench_session_throughput(kThroughputSessions, false,
                                              /*path_health=*/false);
  const double health_overhead_pct = sth > 0 ? (st - sth) / sth * 100.0 : 0.0;
  std::printf(
      "  path_health_guard:          on %.3fs, off %.3fs (overhead %+.1f%%)\n",
      st, sth, health_overhead_pct);

  // Invariant auditor: the same fault-free population with the runtime
  // switch XLINK_AUDIT=0 set around it (restored afterwards). The default
  // `st` run above audits, so the delta is the per-tick cost of the
  // cross-layer invariant walk. With -DXLINK_AUDIT=OFF both legs compile to
  // the same code and the overhead collapses to noise (the ((void)0)
  // claim, kept visible per commit).
  const char* audit_env = std::getenv("XLINK_AUDIT");
  const std::optional<std::string> saved_audit_env =
      audit_env ? std::optional<std::string>(audit_env) : std::nullopt;
  ::setenv("XLINK_AUDIT", "0", 1);
  const double sta = bench_session_throughput(kThroughputSessions, false);
  if (saved_audit_env)
    ::setenv("XLINK_AUDIT", saved_audit_env->c_str(), 1);
  else
    ::unsetenv("XLINK_AUDIT");
  const double audit_overhead_pct = sta > 0 ? (st - sta) / sta * 100.0 : 0.0;
  std::printf(
      "  invariant_auditor:          on %.3fs, off %.3fs (overhead %+.1f%%)\n",
      st, sta, audit_overhead_pct);

  const FailoverRecovery fr = bench_failover_recovery();
  std::printf(
      "  failover_recovery:          detect %.3fs, resume %.3fs after window "
      "(download %.2fs)\n",
      fr.detect_s, fr.resume_s, fr.download_s);

  const TraceHookRates hook = bench_trace_hook(hook_iters);
  std::printf(
      "  telemetry_trace_hook:       compiled-out %.2fns, disabled %.2fns, "
      "enabled %.2fns per hook\n",
      1e9 / hook.compiled_out, 1e9 / hook.disabled, 1e9 / hook.enabled);

  const std::uint64_t cc_ops = smoke ? 500'000 : 10'000'000;
  const double rs_s = bench_rate_sampler(cc_ops);
  records.push_back(
      {"rate_sampler", rs_s, "ops_per_sec", static_cast<double>(cc_ops) / rs_s});
  std::printf("  rate_sampler:               %.3fs  (%.1fns per stamp+ack)\n",
              rs_s, rs_s / static_cast<double>(cc_ops) * 1e9);

  std::uint64_t pacer_sent = 0;
  const double pc_s = bench_pacer(cc_ops, pacer_sent);
  records.push_back({"pacer_overhead", pc_s, "ops_per_sec",
                     static_cast<double>(cc_ops) / pc_s});
  std::printf(
      "  pacer_overhead:             %.3fs  (%.1fns per gate+debit, "
      "%llu/%llu sends admitted)\n",
      pc_s, pc_s / static_cast<double>(cc_ops) * 1e9,
      static_cast<unsigned long long>(pacer_sent),
      static_cast<unsigned long long>(cc_ops));

  // Serial and parallel sweeps are separate records: the parallel leg runs
  // at hardware_concurrency explicitly, so speedup_vs_serial measures the
  // engine even when XLINK_JOBS pins the default to 1.
  const double sweep_serial =
      wall_seconds([&] { fig10_style_sweep(1, sweep_sessions); });
  const double sweep_parallel =
      wall_seconds([&] { fig10_style_sweep(hw, sweep_sessions); });
  const double speedup = sweep_parallel > 0 ? sweep_serial / sweep_parallel
                                            : 0.0;
  std::printf(
      "  fig10_threshold_sweep:      serial %.3fs, %u-way %.3fs "
      "(speedup %.2fx)\n",
      sweep_serial, hw, sweep_parallel, speedup);

  const GridShardPerf gs = bench_grid_shard();
  std::printf(
      "  grid_shard (%s):   plan %.3fs, work %.3fs (%zu cells), "
      "merge %.3fs\n",
      gs.grid.c_str(), gs.plan_s, gs.work_s, gs.cells.size(), gs.merge_s);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_perf: cannot open %s\n", out_path);
    return 1;
  }
  bench::JsonWriter w(out);
  w.begin_object();
  w.kv("bench", "bench_perf");
  w.kv("jobs", jobs);
  w.kv("hardware_concurrency", std::thread::hardware_concurrency());
  w.kv("smoke", smoke);
  w.key("benches");
  w.begin_array();
  for (const auto& r : records) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("wall_s", r.wall_s);
    if (!r.rate_key.empty()) w.kv(r.rate_key, r.rate);
    w.end_object();
  }
  w.begin_object();
  w.kv("name", "packet_datapath_roundtrip");
  w.kv("wall_s", dp.wall_s);
  w.kv("packets", dp.packets);
  w.kv("packets_per_sec", static_cast<double>(dp.packets) / dp.wall_s);
  w.kv("pool_acquires", dp.pool.acquires);
  w.kv("pool_hits", dp.pool.pool_hits);
  w.kv("pool_slab_allocs", dp.pool.slab_allocs);
  w.kv("pool_oversize_allocs", dp.pool.oversize_allocs);
  w.end_object();
  w.begin_object();
  w.kv("name", "fec_encode_decode");
  w.kv("wall_s", fp.wall_s);
  w.kv("windows", fp.windows);
  w.kv("packets", fp.packets);
  w.kv("recovered", fp.recovered);
  w.kv("packets_per_sec", static_cast<double>(fp.packets) / fp.wall_s);
  w.kv("pool_acquires", fp.pool.acquires);
  w.kv("pool_hits", fp.pool.pool_hits);
  w.kv("pool_slab_allocs", fp.pool.slab_allocs);
  w.kv("pool_oversize_allocs", fp.pool.oversize_allocs);
  w.end_object();
  w.begin_object();
  w.kv("name", "telemetry_trace_hook");
  w.kv("iters", hook.iters);
  w.kv("compiled_out_ops_per_sec", hook.compiled_out);
  w.kv("disabled_ops_per_sec", hook.disabled);
  w.kv("enabled_ops_per_sec", hook.enabled);
  w.kv("disabled_ns_per_hook", 1e9 / hook.disabled);
  w.kv("enabled_ns_per_hook", 1e9 / hook.enabled);
  w.end_object();
  w.begin_object();
  w.kv("name", "fig10_threshold_sweep_serial");
  w.kv("wall_s", sweep_serial);
  w.kv("jobs", 1);
  w.end_object();
  w.begin_object();
  w.kv("name", "fig10_threshold_sweep_parallel");
  w.kv("wall_s", sweep_parallel);
  w.kv("jobs", hw);
  w.kv("speedup_vs_serial", speedup);
  w.end_object();
  w.begin_object();
  w.kv("name", "grid_shard");
  w.kv("grid", gs.grid);
  w.kv("plan_wall_s", gs.plan_s);
  w.kv("work_wall_s", gs.work_s);
  w.kv("merge_wall_s", gs.merge_s);
  w.key("cells");
  w.begin_array();
  for (const auto& [label, seconds] : gs.cells) {
    w.begin_object();
    w.kv("label", label);
    w.kv("wall_s", seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.begin_object();
  w.kv("name", "path_health_guard");
  w.kv("health_on_wall_s", st);
  w.kv("health_off_wall_s", sth);
  w.kv("overhead_pct", health_overhead_pct);
  w.end_object();
  w.begin_object();
  w.kv("name", "invariant_auditor");
  w.kv("audit_on_wall_s", st);
  w.kv("audit_off_wall_s", sta);
  w.kv("overhead_pct", audit_overhead_pct);
  w.end_object();
  w.begin_object();
  w.kv("name", "failover_recovery");
  w.kv("detect_s", fr.detect_s);
  w.kv("resume_after_window_s", fr.resume_s);
  w.kv("download_s", fr.download_s);
  w.end_object();
  w.end_array();
  w.end_object();
  out << "\n";
  std::printf("wrote %s\n", out_path);
  return 0;
}
