// Fig. 6: how double-thresholding QoE control overcomes MP-HoL blocking
// with reduced cost, in a fast-changing wireless environment.
//
// Path 1 (primary) deteriorates to near-zero between 1.5s and 3.5s; Path 2
// stays healthy. We replay three schemes against the same traces:
//   (b) vanilla-MP        -- buffer drains during the outage (HoL blocking)
//   (c) re-inj w/o QoE    -- buffer survives, but duplicates flow even when
//                            the buffer is full (wasted traffic)
//   (d) re-inj w/ QoE     -- buffer survives with duplicates only when the
//                            buffer is low (XLINK)
// Output: buffer level + cumulative re-injected bytes timeline per scheme,
// plus rebuffer/cost totals.
#include <cinttypes>

#include "bench_util.h"
#include "core/session.h"
#include "trace/synthetic.h"

using namespace xlink;

namespace {

harness::SessionConfig fig6_config(core::Scheme scheme) {
  harness::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 1234;
  cfg.time_limit = sim::seconds(30);
  cfg.video.duration = sim::seconds(14);
  cfg.video.bitrate_bps = 3'500'000;
  cfg.video.fps = 30;
  cfg.video.seed = 99;
  cfg.client.chunk_bytes = 384 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.options.control.tth1 = sim::millis(500);
  cfg.options.control.tth2 = sim::millis(1500);
  cfg.wireless_aware_primary = false;  // keep the degrading path primary

  // Path 1: healthy, then a 3.5-second near-outage, then recovery
  // (Fig. 6a's deteriorating path).
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi,
      bench::piecewise_trace({{8.0, sim::millis(800)},
                              {0.05, sim::millis(3500)},
                              {8.0, sim::seconds(27)}}),
      sim::millis(40)));
  // Path 2: steady, just above the video bitrate.
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte,
      bench::piecewise_trace({{5.5, sim::seconds(32)}}),
      sim::millis(90)));
  return cfg;
}

void run_scheme(const char* label, core::Scheme scheme,
                bench::TraceExemplar& exemplar) {
  auto cfg = fig6_config(scheme);
  if (scheme == core::Scheme::kXlink) exemplar.apply(cfg, "fig6_xlink");
  auto [result, timeline] = bench::run_with_timeline(std::move(cfg),
                                                     sim::millis(200));
  bench::heading(std::string("Fig. 6 timeline: ") + label);
  stats::Table table({"t(s)", "buffer(MB)", "reinject(MB)"});
  for (const auto& s : timeline) {
    if (s.t_seconds > 6.0) break;
    table.add_row({bench::fmt(s.t_seconds, 1), bench::fmt(s.buffer_mb),
                   bench::fmt(s.reinject_mb)});
  }
  table.print();
  std::printf(
      "summary: rebuffers=%" PRIu64 " rebuffer_time=%.2fs "
      "reinjected=%.2fMB redundancy=%.1f%% first_frame=%.0fms\n",
      result.metrics.counter("session.rebuffers"), result.rebuffer_seconds,
      result.metrics.counter("quic.server.reinjected_bytes") / 1e6,
      result.redundancy_ratio * 100.0,
      result.first_frame_seconds.value_or(0.0) * 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Reproduction of paper Fig. 6 (QoE control dynamics)\n");
  auto exemplar = bench::TraceExemplar::parse(argc, argv);
  run_scheme("(b) vanilla-MP", core::Scheme::kVanillaMp, exemplar);
  run_scheme("(c) re-injection w/o QoE control", core::Scheme::kReinjectNoQoe,
             exemplar);
  run_scheme("(d) re-injection w/ QoE control (XLINK)", core::Scheme::kXlink,
             exemplar);
  std::printf(
      "\nExpected shape: (b) rebuffers during the outage; (c) and (d) do "
      "not;\n(c) re-injects continuously, (d) only around the outage and "
      "start-up.\n");
  return 0;
}
