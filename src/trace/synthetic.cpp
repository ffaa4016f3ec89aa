#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace xlink::trace {
namespace {

/// Converts a per-step Mbps curve to Mahimahi delivery opportunities.
LinkTrace curve_to_trace(const std::vector<double>& mbps_per_step,
                         sim::Duration step) {
  const double step_ms = sim::to_millis(step);
  // Whole packets per step at the step's rate, fractions carried forward;
  // counted first so the (multi-megabyte) trace is sized once.
  std::vector<std::uint64_t> per_step(mbps_per_step.size());
  std::uint64_t total = 0;
  double credit = 0.0;
  for (std::size_t i = 0; i < mbps_per_step.size(); ++i) {
    const double pkts =
        mbps_per_step[i] * 1e6 / 8.0 / kDeliveryMtu * (step_ms / 1000.0);
    credit += pkts;
    per_step[i] = static_cast<std::uint64_t>(credit);
    credit -= static_cast<double>(per_step[i]);
    total += per_step[i];
  }
  std::vector<std::uint32_t> ms;
  ms.reserve(std::max<std::uint64_t>(total, 1));
  for (std::size_t i = 0; i < mbps_per_step.size(); ++i) {
    // Spread opportunities uniformly within the step.
    const std::uint64_t whole = per_step[i];
    const double base_ms = static_cast<double>(i) * step_ms;
    for (std::uint64_t k = 0; k < whole; ++k) {
      const double frac = (static_cast<double>(k) + 0.5) /
                          static_cast<double>(whole);
      ms.push_back(static_cast<std::uint32_t>(base_ms + frac * step_ms) + 1);
    }
  }
  if (ms.empty())
    ms.push_back(std::max<std::uint32_t>(
        static_cast<std::uint32_t>(
            static_cast<double>(mbps_per_step.size()) * step_ms),
        1));
  return LinkTrace(std::move(ms));
}

}  // namespace

std::vector<double> rate_curve(const SyntheticSpec& spec, sim::Rng rng) {
  const auto steps = static_cast<std::size_t>(spec.duration / spec.step);
  std::vector<double> curve(steps);
  double rate = spec.mean_mbps;
  // Outage overlay state: steps remaining at (near) zero rate.
  std::size_t outage_left = 0;
  const double outage_per_step =
      spec.outage_per_second * sim::to_seconds(spec.step);
  for (std::size_t i = 0; i < steps; ++i) {
    // Mean-reverting multiplicative walk.
    const double shock = rng.normal(0.0, spec.volatility);
    rate = rate + spec.reversion * (spec.mean_mbps - rate) + rate * shock;
    rate = std::clamp(rate, spec.min_mbps, spec.max_mbps);
    if (outage_left == 0 && rng.chance(outage_per_step)) {
      const double span_ms = rng.uniform_double(
          sim::to_millis(spec.outage_min), sim::to_millis(spec.outage_max));
      outage_left = std::max<std::size_t>(
          1, static_cast<std::size_t>(span_ms / sim::to_millis(spec.step)));
    }
    if (outage_left > 0) {
      --outage_left;
      curve[i] = std::min(rate, 0.1);  // near-total outage
    } else {
      curve[i] = rate;
    }
  }
  return curve;
}

LinkTrace generate(const SyntheticSpec& spec, sim::Rng& rng) {
  return curve_to_trace(rate_curve(spec, rng.fork()), spec.step);
}

LinkTrace campus_walk_wifi(std::uint64_t seed, sim::Duration duration) {
  SyntheticSpec spec;
  spec.mean_mbps = 18.0;
  spec.max_mbps = 35.0;
  spec.min_mbps = 0.0;
  spec.volatility = 0.35;   // fast varying
  spec.reversion = 0.10;
  spec.outage_per_second = 0.25;  // occasional near-outages like Fig. 1a
  spec.outage_min = sim::millis(300);
  spec.outage_max = sim::millis(700);
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

LinkTrace stable_lte(std::uint64_t seed, sim::Duration duration) {
  SyntheticSpec spec;
  spec.mean_mbps = 16.0;
  spec.max_mbps = 30.0;
  spec.min_mbps = 6.0;
  spec.volatility = 0.08;   // relatively stable (Fig. 1b)
  spec.reversion = 0.25;
  spec.outage_per_second = 0.0;
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

LinkTrace hsr_cellular(std::uint64_t seed, sim::Duration duration) {
  SyntheticSpec spec;
  spec.mean_mbps = 7.0;
  spec.max_mbps = 12.0;
  spec.min_mbps = 0.0;
  spec.volatility = 0.40;
  spec.reversion = 0.12;
  spec.outage_per_second = 0.35;  // frequent deep fades from handoffs
  spec.outage_min = sim::millis(400);
  spec.outage_max = sim::millis(1500);
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

LinkTrace onboard_wifi(std::uint64_t seed, sim::Duration duration) {
  SyntheticSpec spec;
  spec.mean_mbps = 4.0;
  spec.max_mbps = 8.0;
  spec.min_mbps = 0.0;
  spec.volatility = 0.45;
  spec.reversion = 0.10;
  spec.outage_per_second = 0.5;  // satellite backhaul drops often
  spec.outage_min = sim::millis(300);
  spec.outage_max = sim::millis(1200);
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

LinkTrace subway_cellular(std::uint64_t seed, sim::Duration duration) {
  SyntheticSpec spec;
  spec.mean_mbps = 9.0;
  spec.max_mbps = 16.0;
  spec.min_mbps = 0.0;
  spec.volatility = 0.30;
  spec.reversion = 0.15;
  spec.outage_per_second = 0.20;  // tunnel blackouts: rarer but longer
  spec.outage_min = sim::millis(800);
  spec.outage_max = sim::millis(2500);
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

LinkTrace nr_5g(std::uint64_t seed, sim::Duration duration, double cap_mbps) {
  SyntheticSpec spec;
  spec.mean_mbps = cap_mbps * 0.9;
  spec.max_mbps = cap_mbps;
  spec.min_mbps = 0.0;
  spec.volatility = 0.15;
  spec.reversion = 0.20;
  spec.outage_per_second = 0.08;  // small coverage holes
  spec.outage_min = sim::millis(200);
  spec.outage_max = sim::millis(600);
  spec.duration = duration;
  sim::Rng rng(seed);
  return generate(spec, rng);
}

}  // namespace xlink::trace
