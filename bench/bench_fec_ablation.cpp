// FEC vs re-injection ablation under Gilbert-Elliott burst loss.
//
// Four arms on identical drawn conditions (same seeds, same traces, same
// burst-loss processes): no redundancy, re-injection only, FEC only, and
// FEC + re-injection (mutually aware: re-injection skips packets a repair
// window covers). Reports the QoE triplet (first frame, chunk RCT,
// rebuffer rate) plus the cost side: redundancy overhead, erasures the FEC
// windows observed, and the fraction recovered without a retransmit.
//
// `--smoke` shrinks the sweep for CI (2 seeds, short video), exercising
// all four arms end to end.
#include "bench_util.h"
#include "harness/parallel.h"
#include "trace/synthetic.h"

using namespace xlink;

namespace {

struct Arm {
  const char* label;
  core::XlinkRedundancy redundancy;
};

constexpr Arm kArms[] = {
    {"none", core::XlinkRedundancy::kNone},
    {"reinject", core::XlinkRedundancy::kReinject},
    {"fec", core::XlinkRedundancy::kFec},
    {"fec+reinject", core::XlinkRedundancy::kReinjectPlusFec},
};

struct Sweep {
  int seeds = 8;
  sim::Duration video = sim::seconds(12);
  sim::Duration time_limit = sim::seconds(60);
};

harness::SessionConfig base_config(std::uint64_t seed, const Sweep& sweep) {
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
  // Bursty residual loss on both paths: the regime where per-window FEC
  // pays off (independent Bernoulli loss rarely erases, bursts do).
  net::PathSpec::GeLoss ge;
  ge.p_good_to_bad = 0.006;
  ge.p_bad_to_good = 0.35;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.45;
  for (auto& p : cfg.paths) p.ge_loss = ge;
  return cfg;
}

void configure_arm(harness::SessionConfig& cfg, const Arm& arm) {
  cfg.options.xlink_redundancy = arm.redundancy;
  // Burst erasures cluster, and a burst that kills a window's tail often
  // kills the adjacent repair packets too -- budget enough symbols that
  // some survive the same burst that caused the erasures.
  cfg.options.fec.window = 8;
  cfg.options.fec.min_repairs = 4;
  cfg.options.fec.max_repairs = 6;
  cfg.options.fec.loss_multiplier = 8.0;
}

harness::DayMetrics run_arm(const Arm& arm, const Sweep& sweep) {
  return harness::fold_day(harness::run_sessions_parallel(
      static_cast<std::size_t>(sweep.seeds), [&](std::size_t i) {
        auto cfg = base_config(i + 1, sweep);
        configure_arm(cfg, arm);
        return cfg;
      }));
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
  std::printf("FEC vs re-injection ablation (Gilbert-Elliott burst loss, "
              "%d seeds)\n", sweep.seeds);

  if (auto exemplar = bench::TraceExemplar::parse(argc, argv);
      exemplar.on()) {
    auto cfg = base_config(1, sweep);
    configure_arm(cfg, kArms[3]);  // fec+reinject shows every event type
    exemplar.apply(cfg, "fec_ablation");
    harness::Session(std::move(cfg)).run();
  }

  bench::heading(
      "QoE (first frame, RCT, rebuffer) vs redundancy cost per arm");
  stats::Table table({"Arm", "ff p50(ms)", "RCT p99(s)", "rebuf(%)",
                      "redun(%)", "windows", "erased", "recovered",
                      "recov(%)", "wasted"});
  for (const Arm& arm : kArms) {
    const harness::DayMetrics day = run_arm(arm, sweep);
    const auto& m = day.metrics;
    const std::uint64_t erased = m.counter("fec.client.erased_seen");
    const std::uint64_t recovered = m.counter("fec.client.recovered_packets");
    const double recov_pct =
        erased > 0 ? 100.0 * double(recovered) / double(erased) : 0.0;
    table.add_row({arm.label, bench::fmt(bench::median_ms(day.first_frame), 0),
                   bench::fmt(day.rct.percentile(99), 2),
                   bench::fmt(day.rebuffer_rate * 100.0, 2),
                   bench::fmt(day.redundancy_pct, 1),
                   std::to_string(m.counter("fec.server.windows_protected")),
                   std::to_string(erased), std::to_string(recovered),
                   bench::fmt(recov_pct, 1),
                   std::to_string(m.counter("fec.client.wasted_symbols"))});
  }
  table.print();
  std::printf("\nrecov(%%) = erasures rebuilt from repair symbols without a"
              " retransmit;\nerased counts only erasures inside windows whose"
              " repairs arrived.\n");
  return 0;
}
