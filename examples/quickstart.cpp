// Quickstart: stream one short video over XLINK on Wi-Fi + LTE.
//
// Shows the minimal public-API path: describe the two wireless paths,
// pick the transport scheme, run the session, read the QoE metrics.
//
//   $ ./examples/quickstart
#include <cinttypes>
#include <cstdio>

#include "harness/scenario.h"
#include "trace/synthetic.h"

using namespace xlink;

int main() {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;  // the paper's full system
  cfg.seed = 42;

  // A 12-second, 2.5 Mbps product short video at 30 fps.
  cfg.video.duration = sim::seconds(12);
  cfg.video.bitrate_bps = 2'500'000;
  cfg.video.fps = 30;

  // The phone's two interfaces: a fast-varying walking Wi-Fi link and a
  // steadier LTE link with a higher path delay. The harness applies
  // wireless-aware primary path selection automatically.
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::campus_walk_wifi(7, sim::seconds(30)),
      sim::millis(40)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(8, sim::seconds(30)),
      sim::millis(110)));

  harness::Session session(std::move(cfg));
  const harness::SessionResult result = session.run();

  std::printf("video downloaded: %s, played to the end: %s\n",
              result.download_finished ? "yes" : "no",
              result.video_finished ? "yes" : "no");
  std::printf("first video frame: %.0f ms\n",
              result.first_frame_seconds.value_or(0) * 1000);
  // Counters (events, bytes, packets) live in the session's registry.
  const auto& counters = result.metrics;
  std::printf("rebuffering:       %" PRIu64 " events, %.2f s total "
              "(rate %.2f%%)\n",
              counters.counter("session.rebuffers"), result.rebuffer_seconds,
              result.rebuffer_rate * 100);
  std::printf("chunk RCTs (s):    ");
  for (double t : result.chunk_rct_seconds) std::printf("%.2f ", t);
  std::printf("\nredundant traffic: %.1f%% of payload (%.0f KB re-injected)\n",
              result.redundancy_ratio * 100,
              counters.counter("quic.server.reinjected_bytes") / 1000.0);
  std::printf("bytes per path:    WiFi %.0f KB, LTE %.0f KB\n",
              static_cast<double>(result.path_down_bytes[0]) / 1000,
              static_cast<double>(result.path_down_bytes[1]) / 1000);
  return 0;
}
