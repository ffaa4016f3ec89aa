// Congestion-control ablation: Cubic vs BBR vs BBR-without-pacing.
//
// Three arms on identical drawn conditions (same seeds, same traces, same
// burst-loss processes), swept over two network regimes:
//
//   - "ge-lossy": Gilbert-Elliott burst loss on both paths. Loss-based
//     Cubic reads every burst as congestion and halves; rate-based BBR
//     keeps cruising at the measured bottleneck bandwidth, so its goodput
//     should dominate here.
//   - "trace": clean trace-driven capacity (no residual loss). The regime
//     where pacing matters: an unpaced sender dumps each cwnd's worth of
//     packets into the droptail queue at once, a paced one spreads them
//     over the RTT, so the queue high-water mark should drop.
//
// Reports goodput, the QoE pair (first frame, rebuffer), loss, and the
// droptail queue high-water mark across paths.
//
// `--smoke` shrinks the sweep for CI (2 seeds, short video), exercising
// all arms in both regimes end to end.
#include "bench_util.h"
#include "harness/parallel.h"
#include "trace/synthetic.h"

using namespace xlink;

namespace {

struct Arm {
  const char* label;
  quic::CcAlgorithm cc;
  bool pacing;
};

constexpr Arm kArms[] = {
    {"cubic", quic::CcAlgorithm::kCubic, false},
    {"bbr", quic::CcAlgorithm::kBbr, true},
    {"bbr-unpaced", quic::CcAlgorithm::kBbr, false},
};

struct Sweep {
  int seeds = 8;
  sim::Duration video = sim::seconds(12);
  sim::Duration time_limit = sim::seconds(60);
};

harness::SessionConfig base_config(std::uint64_t seed, const Sweep& sweep,
                                   bool ge_loss) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = seed;
  cfg.time_limit = sweep.time_limit;
  cfg.video.duration = sweep.video;
  cfg.video.bitrate_bps = 3'000'000;
  cfg.video.first_frame_bytes = 128 * 1024;
  cfg.client.chunk_bytes = 256 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi,
      trace::campus_walk_wifi(seed * 5 + 1, sim::seconds(40)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed * 5 + 2, sim::seconds(40)),
      sim::millis(90)));
  if (ge_loss) {
    // Bursty residual (non-congestion) loss on both paths: the regime
    // where loss-based CC backs off for no reason and rate-based CC wins.
    net::PathSpec::GeLoss ge;
    ge.p_good_to_bad = 0.006;
    ge.p_bad_to_good = 0.35;
    ge.loss_good = 0.0;
    ge.loss_bad = 0.45;
    for (auto& p : cfg.paths) p.ge_loss = ge;
  }
  return cfg;
}

struct ArmResult {
  harness::DayMetrics day;
  stats::Summary goodput_mbps;   // per session
  std::uint64_t peak_queue = 0;  // max droptail depth over paths/sessions
};

ArmResult run_arm(const Arm& arm, const Sweep& sweep, bool ge_loss) {
  const auto results = harness::run_sessions_parallel(
      static_cast<std::size_t>(sweep.seeds), [&](std::size_t i) {
        auto cfg = base_config(i + 1, sweep, ge_loss);
        cfg.options.cc = arm.cc;
        cfg.options.pacing = arm.pacing;
        return cfg;
      });
  ArmResult a;
  for (const auto& r : results) {
    if (r.download_seconds > 0.0)
      a.goodput_mbps.add(
          double(r.metrics.counter("quic.server.stream_bytes_sent")) * 8.0 /
          1e6 / r.download_seconds);
    for (std::uint64_t q : r.path_peak_queue_bytes)
      a.peak_queue = std::max(a.peak_queue, q);
  }
  a.day = harness::fold_day(results);
  return a;
}

void run_regime(const char* name, bool ge_loss, const Sweep& sweep) {
  bench::heading(name);
  stats::Table table({"Arm", "goodput p50(Mb/s)", "ff p50(ms)", "rebuf(%)",
                      "lost pkts", "rtx(KB)", "peak queue(KB)"});
  for (const Arm& arm : kArms) {
    const ArmResult a = run_arm(arm, sweep, ge_loss);
    const auto& m = a.day.metrics;
    table.add_row(
        {arm.label, bench::fmt(a.goodput_mbps.median(), 2),
         bench::fmt(bench::median_ms(a.day.first_frame), 0),
         bench::fmt(a.day.rebuffer_rate * 100.0, 2),
         std::to_string(m.counter("quic.server.packets_lost")),
         bench::fmt(m.counter("quic.server.retransmitted_bytes") / 1024.0, 0),
         bench::fmt(a.peak_queue / 1024.0, 1)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sweep.seeds = 2;
      sweep.video = sim::seconds(4);
      sweep.time_limit = sim::seconds(30);
    }
  }
  std::printf("Congestion-control ablation: cubic vs bbr vs bbr-unpaced "
              "(%d seeds)\n", sweep.seeds);

  if (auto exemplar = bench::TraceExemplar::parse(argc, argv);
      exemplar.on()) {
    auto cfg = base_config(1, sweep, /*ge_loss=*/true);
    cfg.options.cc = quic::CcAlgorithm::kBbr;
    cfg.options.pacing = true;  // bbr+pacing emits every new CC event type
    exemplar.apply(cfg, "cc_ablation");
    harness::Session(std::move(cfg)).run();
  }

  run_regime("Gilbert-Elliott burst loss (random loss != congestion)",
             /*ge_loss=*/true, sweep);
  run_regime("Trace-driven capacity, no residual loss (queue discipline)",
             /*ge_loss=*/false, sweep);

  std::printf("\npeak queue = droptail high-water mark across paths; pacing"
              "\nspreads each window over the RTT instead of line-rate"
              " bursts.\n");
  return 0;
}
