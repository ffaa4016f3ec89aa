// Adaptive-bitrate ablation: rate-based vs buffer-based vs hybrid ABR,
// each under the min-RTT baseline scheduler and under XLINK.
//
// Six arms on identical drawn conditions (same seeds, traces, burst-loss
// processes), swept over two regimes:
//
//   - "ge-lossy": Gilbert-Elliott burst loss on both paths. The chunk
//     throughput EWMA collapses on every burst, so the rate-based
//     controller oscillates; the hybrid controller rides the transport's
//     windowed-max delivery-rate estimate through the bursts and gates
//     up-switches on play-time-left, so it should hold more bitrate at no
//     extra rebuffering.
//   - "trace": clean trace-driven capacity. All controllers should
//     converge near the top rung; the interesting number is switch churn.
//
// Reports the frame-weighted bitrate utility (chosen/top), rebuffer ratio,
// switch churn, startup delay, and goodput per arm.
//
// `--smoke` shrinks the sweep for CI (2 seeds, short video), exercising
// all six arms in both regimes end to end.
#include "bench_util.h"
#include "harness/parallel.h"
#include "trace/synthetic.h"
#include "video/abr.h"

using namespace xlink;

namespace {

struct Arm {
  const char* label;
  core::Scheme scheme;
  video::AbrAlgorithm abr;
};

constexpr Arm kArms[] = {
    {"minrtt/rate", core::Scheme::kVanillaMp, video::AbrAlgorithm::kRateBased},
    {"minrtt/buffer", core::Scheme::kVanillaMp,
     video::AbrAlgorithm::kBufferBased},
    {"minrtt/hybrid", core::Scheme::kVanillaMp, video::AbrAlgorithm::kHybrid},
    {"xlink/rate", core::Scheme::kXlink, video::AbrAlgorithm::kRateBased},
    {"xlink/buffer", core::Scheme::kXlink, video::AbrAlgorithm::kBufferBased},
    {"xlink/hybrid", core::Scheme::kXlink, video::AbrAlgorithm::kHybrid},
};

struct Sweep {
  int seeds = 8;
  sim::Duration video = sim::seconds(12);
  sim::Duration time_limit = sim::seconds(60);
};

harness::SessionConfig base_config(std::uint64_t seed, const Sweep& sweep,
                                   bool ge_loss) {
  harness::SessionConfig cfg;
  cfg.seed = seed;
  cfg.time_limit = sweep.time_limit;
  cfg.video.duration = sweep.video;
  cfg.video.bitrate_bps = 3'000'000;  // ladder = scaled(3M): 0.75/1.5/2.25/3
  cfg.video.first_frame_bytes = 128 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi,
      trace::campus_walk_wifi(seed * 5 + 1, sim::seconds(40)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed * 5 + 2, sim::seconds(40)),
      sim::millis(90)));
  if (ge_loss) {
    // Bursty residual loss: the regime where the chunk EWMA under-reads
    // capacity and the hybrid's transport-rate input earns its keep.
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
  stats::Summary goodput_mbps;  // per session
  int finished = 0;
};

ArmResult run_arm(const Arm& arm, const Sweep& sweep, bool ge_loss) {
  const auto results = harness::run_sessions_parallel(
      static_cast<std::size_t>(sweep.seeds), [&](std::size_t i) {
        auto cfg = base_config(i + 1, sweep, ge_loss);
        cfg.scheme = arm.scheme;
        cfg.client.abr = arm.abr;
        return cfg;
      });
  ArmResult a;
  for (const auto& r : results) {
    if (r.download_seconds > 0.0)
      a.goodput_mbps.add(
          double(r.metrics.counter("quic.server.stream_bytes_sent")) * 8.0 /
          1e6 / r.download_seconds);
    a.finished += r.video_finished ? 1 : 0;
  }
  a.day = harness::fold_day(results);
  return a;
}

void run_regime(const char* name, bool ge_loss, const Sweep& sweep) {
  bench::heading(name);
  stats::Table table({"Arm", "utility", "rebuf(%)", "switches/sess", "|mag|",
                      "startup p50(ms)", "goodput p50(Mb/s)", "fin"});
  for (const Arm& arm : kArms) {
    const ArmResult a = run_arm(arm, sweep, ge_loss);
    const harness::DayMetrics& day = a.day;
    const std::uint64_t switches = day.metrics.counter("session.abr.switches");
    table.add_row(
        {arm.label, bench::fmt(day.abr_utility.mean(), 3),
         bench::fmt(day.rebuffer_rate * 100.0, 2),
         bench::fmt(day.sessions ? double(switches) / day.sessions : 0.0, 1),
         std::to_string(day.metrics.counter("session.abr.switch_magnitude")),
         bench::fmt(bench::median_ms(day.startup_delay), 0),
         bench::fmt(a.goodput_mbps.median(), 2),
         std::to_string(a.finished) + "/" + std::to_string(day.sessions)});
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
  std::printf("ABR ablation: {rate, buffer, hybrid} x {minrtt, xlink} "
              "(%d seeds)\n", sweep.seeds);

  if (auto exemplar = bench::TraceExemplar::parse(argc, argv);
      exemplar.on()) {
    auto cfg = base_config(1, sweep, /*ge_loss=*/true);
    cfg.scheme = core::Scheme::kXlink;
    cfg.client.abr = video::AbrAlgorithm::kHybrid;
    exemplar.apply(cfg, "abr_ablation");
    harness::Session(std::move(cfg)).run();
  }

  run_regime("Gilbert-Elliott burst loss (EWMA under-reads capacity)",
             /*ge_loss=*/true, sweep);
  run_regime("Trace-driven capacity, no residual loss (switch churn)",
             /*ge_loss=*/false, sweep);

  std::printf("\nutility = frame-weighted chosen/top bitrate; the hybrid"
              "\ncontroller should match or beat rate-based utility on the"
              "\nburst-loss regime without adding rebuffer time.\n");
  return 0;
}
