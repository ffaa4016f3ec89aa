#include "harness/ab_test.h"

#include "trace/synthetic.h"

namespace xlink::harness {
namespace {

/// Applies a random cross-ISP delay penalty to a secondary path (Table 4).
sim::Duration apply_cross_isp(sim::Duration rtt, sim::Rng& rng) {
  const auto from = static_cast<net::Isp>(rng.uniform(3));
  auto to = static_cast<net::Isp>(rng.uniform(3));
  const double inc = net::cross_isp_increase(from, to);
  return static_cast<sim::Duration>(static_cast<double>(rtt) * (1.0 + inc));
}

}  // namespace

SessionConfig draw_session_conditions(const PopulationConfig& pop,
                                      std::uint64_t session_seed) {
  sim::Rng rng(session_seed);
  SessionConfig cfg;
  cfg.seed = rng.next_u64();
  cfg.time_limit = pop.time_limit;

  // Video: short-form product videos, 8-20 s, 1.5-4 Mbps, 30 fps.
  cfg.video.duration = sim::millis(
      static_cast<std::uint64_t>(rng.uniform_double(8000, 20000)));
  cfg.video.bitrate_bps = static_cast<std::uint64_t>(
      rng.uniform_double(1.5e6, 4.0e6));
  cfg.video.fps = 30;
  cfg.video.seed = rng.next_u64();

  cfg.client.chunk_bytes = 256 * 1024 +
                           128 * 1024 * rng.uniform(3);  // 256-512 KB
  cfg.client.max_concurrent = 2 + static_cast<int>(rng.uniform(2));
  // ABR workload knob (no RNG draw: adding ABR to a population must not
  // perturb the conditions a fixed-bitrate population would draw).
  cfg.client.abr = pop.abr;

  const bool outage_heavy = rng.chance(pop.p_outage_heavy);
  const bool moderate_wifi = rng.chance(pop.p_walking_wifi);
  const sim::Duration dur = sim::seconds(40);

  // Wi-Fi path: a production user's Wi-Fi streams video fine on its own
  // (that is the SP baseline's whole population). It is either calm and
  // generously provisioned, or "moderate": 1.3-2.2x the video bitrate with
  // mild variation and rare brief dips -- enough headroom to play, little
  // slack to absorb a multipath stall.
  trace::LinkTrace wifi_trace;
  if (outage_heavy) {
    wifi_trace = trace::onboard_wifi(rng.next_u64(), dur);
  } else if (moderate_wifi) {
    trace::SyntheticSpec spec;
    const double ratio = rng.uniform_double(1.6, 2.6);
    spec.mean_mbps = static_cast<double>(cfg.video.bitrate_bps) / 1e6 * ratio;
    // Floor above the bitrate: a production user whose Wi-Fi cannot play
    // the video alone would not be in the SP arm's healthy majority.
    spec.min_mbps =
        static_cast<double>(cfg.video.bitrate_bps) / 1e6 * 1.15;
    spec.max_mbps = spec.mean_mbps * 1.5;
    spec.volatility = 0.15;
    spec.reversion = 0.3;
    spec.outage_per_second = 0.05;  // rare, brief dips
    spec.outage_min = sim::millis(200);
    spec.outage_max = sim::millis(450);
    spec.duration = dur;
    sim::Rng wifi_rng(rng.next_u64());
    wifi_trace = trace::generate(spec, wifi_rng);
  } else {
    wifi_trace = trace::stable_lte(rng.next_u64(), dur);  // calm, ~16 Mbps
  }
  sim::Duration wifi_rtt = net::sample_rtt(net::Wireless::kWifi, rng);
  cfg.paths.push_back(make_path_spec(net::Wireless::kWifi,
                                     std::move(wifi_trace), wifi_rtt,
                                     rng.uniform_double(0, pop.max_loss)));

  // Cellular path (LTE or 5G NSA), usually the secondary. Often
  // fade-prone: cellular under mobility dips in and out, which is exactly
  // what multi-path HoL blocking feeds on -- SP, pinned to Wi-Fi, never
  // notices these fades.
  const bool is_5g = rng.chance(pop.p_5g);
  const bool fading = rng.chance(pop.p_fading_cellular);
  const net::Wireless cell_tech =
      is_5g ? net::Wireless::k5gNsa : net::Wireless::kLte;
  trace::LinkTrace cell_trace;
  if (outage_heavy || fading) {
    // Deep, seconds-long fades: the cellular signal of a moving user.
    trace::SyntheticSpec spec;
    spec.mean_mbps = rng.uniform_double(6.0, 12.0);
    spec.min_mbps = 0.0;
    spec.max_mbps = spec.mean_mbps * 1.6;
    spec.volatility = 0.35;
    spec.reversion = 0.12;
    spec.outage_per_second = 0.3;
    spec.outage_min = sim::millis(800);
    spec.outage_max = sim::millis(2500);
    spec.duration = dur;
    sim::Rng cell_rng(rng.next_u64());
    cell_trace = trace::generate(spec, cell_rng);
  } else if (is_5g) {
    cell_trace = trace::nr_5g(rng.next_u64(), dur);
  } else {
    cell_trace = trace::stable_lte(rng.next_u64(), dur);
  }
  sim::Duration cell_rtt = net::sample_rtt(cell_tech, rng);
  if (rng.chance(pop.p_cross_isp)) cell_rtt = apply_cross_isp(cell_rtt, rng);
  cfg.paths.push_back(make_path_spec(cell_tech, std::move(cell_trace),
                                     cell_rtt,
                                     rng.uniform_double(0, pop.max_loss)));
  return cfg;
}

// run_day lives in harness/parallel.cpp: it folds per-session results in
// index order on top of the parallel engine, reproducing the historical
// serial accumulation bit-for-bit at any job count.

}  // namespace xlink::harness
