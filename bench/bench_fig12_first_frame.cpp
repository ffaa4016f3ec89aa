// Fig. 12: first-video-frame latency improvement over SP, with and without
// first-video-frame acceleration.
//
// The mechanism the paper isolates: at start-up the primary path's small
// initial window fills instantly, so early first-frame packets spill onto
// the (much slower, possibly cross-ISP) secondary path. Without
// video-frame priority, their re-injected copies queue behind the rest of
// the first chunk, so multipath start-up is WORSE than single path at the
// tail; with frame priority the duplicates jump the queue and ride the
// fast path. We run a controlled population with large delay ratios and
// first frames of 128 KB - 1 MB inside a 2 MB first chunk.
#include "bench_util.h"
#include "trace/synthetic.h"

using namespace xlink;

namespace {

constexpr int kSessions = 60;

harness::SessionConfig first_frame_session(int i, core::Scheme scheme,
                                           bool acceleration) {
  sim::Rng rng(880000 + i);
  harness::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = rng.next_u64();
  cfg.server.first_frame_acceleration = acceleration;
  cfg.time_limit = sim::seconds(60);
  cfg.video.duration = sim::seconds(10);
  cfg.video.bitrate_bps = 4'000'000;
  cfg.video.first_frame_bytes =
      128 * 1024 + rng.uniform(4) * 96 * 1024;  // 128..512 KB
  cfg.video.seed = rng.next_u64();
  cfg.client.chunk_bytes = 2 * 1024 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.wireless_aware_primary = false;

  // Primary: moderate Wi-Fi. Secondary: high-delay cellular (cross-ISP),
  // same order of bandwidth, 3-8x the delay.
  auto wifi = harness::make_path_spec(net::Wireless::kWifi, {},
                                      sim::millis(30 + rng.uniform(30)));
  wifi.down_trace.reset();
  // Some start-ups catch Wi-Fi in a weak moment: there the second path
  // genuinely accelerates the first frame (if scheduled well).
  wifi.fixed_rate_mbps = rng.chance(0.15) ? rng.uniform_double(3.0, 6.0)
                                          : rng.uniform_double(15.0, 25.0);
  auto cell = harness::make_path_spec(
      net::Wireless::kLte, {},
      sim::millis(150 + rng.uniform(350)));
  if (rng.chance(0.5)) {
    // Fading cellular: packets that spill here at start-up can sit for
    // seconds -- exactly what first-frame re-injection rescues.
    cell.down_trace = trace::hsr_cellular(rng.next_u64(), sim::seconds(40));
  } else {
    cell.down_trace.reset();
    cell.fixed_rate_mbps = rng.uniform_double(6.0, 16.0);
  }
  cfg.paths.push_back(std::move(wifi));
  cfg.paths.push_back(std::move(cell));
  return cfg;
}

stats::Summary first_frames(core::Scheme scheme, bool acceleration) {
  stats::Summary out;
  for (int i = 0; i < kSessions; ++i) {
    harness::Session session(first_frame_session(i, scheme, acceleration));
    const auto r = session.run();
    if (r.first_frame_seconds) out.add(*r.first_frame_seconds);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Reproduction of paper Fig. 12 (first-video-frame acceleration)\n");

  // --trace-exemplar: record one accelerated XLINK start-up session.
  if (auto exemplar = bench::TraceExemplar::parse(argc, argv);
      exemplar.on()) {
    auto cfg = first_frame_session(0, core::Scheme::kXlink, true);
    exemplar.apply(cfg, "fig12_first_frame");
    harness::Session(std::move(cfg)).run();
  }

  const auto sp = first_frames(core::Scheme::kSinglePath, false);
  const auto with_acc = first_frames(core::Scheme::kXlink, true);
  const auto without_acc = first_frames(core::Scheme::kXlink, false);

  bench::heading("First-frame latency improvement over SP (%)");
  stats::Table table({"Percentile", "XLINK w/o acceleration",
                      "XLINK w/ acceleration"});
  auto row = [&](const std::string& label, double pct) {
    const double base = sp.percentile(pct);
    table.add_row({label,
                   bench::fmt(stats::improvement_pct(
                                  base, without_acc.percentile(pct)),
                              1),
                   bench::fmt(stats::improvement_pct(
                                  base, with_acc.percentile(pct)),
                              1)});
  };
  table.add_row({"Avg",
                 bench::fmt(stats::improvement_pct(sp.mean(),
                                                   without_acc.mean()),
                            1),
                 bench::fmt(stats::improvement_pct(sp.mean(),
                                                   with_acc.mean()),
                            1)});
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 92.0, 94.0, 96.0, 98.0, 99.0}) {
    std::string label = "p";
    label += stats::Table::fmt(p, 0);
    row(label, p);
  }
  table.print();
  std::printf(
      "\nExpected shape: w/o acceleration degrades toward the tail (can go "
      "negative);\nw/ acceleration improves, more so at the tail.\n");
  return 0;
}
