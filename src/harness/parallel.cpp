#include "harness/parallel.h"

#include "sim/thread_pool.h"

namespace xlink::harness {
namespace {

/// Builds the i-th session of a day's arm: same session seeds as the
/// serial loop in run_day always used, so conditions are unchanged.
SessionConfig day_session_config(core::Scheme scheme,
                                 const core::SchemeOptions& options,
                                 const PopulationConfig& pop,
                                 std::uint64_t day_seed, std::size_t i) {
  const std::uint64_t session_seed = day_seed * 1000003ULL + i;
  SessionConfig cfg = draw_session_conditions(pop, session_seed);
  cfg.scheme = scheme;
  cfg.options = options;
  return cfg;
}

}  // namespace

DayMetrics fold_day(const std::vector<SessionResult>& results) {
  DayMetrics day;
  double rebuffer_sum = 0.0;
  double play_sum = 0.0;
  for (const SessionResult& r : results) {
    day.rct.add_all(r.chunk_rct_seconds);
    if (r.first_frame_seconds) day.first_frame.add(*r.first_frame_seconds);
    if (r.startup_delay_seconds)
      day.startup_delay.add(*r.startup_delay_seconds);
    if (r.abr_enabled) day.abr_utility.add(r.abr_bitrate_utility);
    rebuffer_sum += r.rebuffer_seconds;
    play_sum += r.play_seconds;
    ++day.sessions;
    day.metrics.merge(r.metrics);
  }
  day.rebuffer_rate = play_sum > 0 ? rebuffer_sum / play_sum : 0.0;
  // All redundancy egress counts: re-injected duplicates AND FEC repair
  // symbols (both are traffic the server would not send without the
  // protection mechanism).
  const telemetry::MetricsRegistry& m = day.metrics;
  const std::uint64_t payload = m.counter("quic.server.stream_bytes_sent");
  const std::uint64_t dup = m.counter("quic.server.reinjected_bytes") +
                            m.counter("fec.server.repair_bytes");
  day.redundancy_pct =
      payload > 0
          ? 100.0 * static_cast<double>(dup) / static_cast<double>(payload)
          : 0.0;
  return day;
}

unsigned default_jobs() { return sim::ThreadPool::default_jobs(); }

std::vector<SessionResult> run_sessions_parallel(
    std::size_t count,
    const std::function<SessionConfig(std::size_t)>& make_config,
    unsigned jobs) {
  return run_sessions_parallel(count, make_config, nullptr, jobs);
}

std::vector<SessionResult> run_sessions_parallel(
    std::size_t count,
    const std::function<SessionConfig(std::size_t)>& make_config,
    const std::function<void(std::size_t, Session&)>& setup, unsigned jobs) {
  std::vector<SessionResult> results(count);
  sim::parallel_for_each(
      count,
      [&](std::size_t i) {
        Session session(make_config(i));
        if (setup) setup(i, session);
        results[i] = session.run();
      },
      jobs);
  return results;
}

DayMetrics run_day(core::Scheme scheme, const core::SchemeOptions& options,
                   const PopulationConfig& pop, std::uint64_t day_seed,
                   unsigned jobs) {
  const auto n = static_cast<std::size_t>(pop.sessions_per_day);
  return fold_day(run_sessions_parallel(
      n,
      [&](std::size_t i) {
        return day_session_config(scheme, options, pop, day_seed, i);
      },
      jobs));
}

AbDay run_ab_day(core::Scheme scheme_a, const core::SchemeOptions& options_a,
                 core::Scheme scheme_b, const core::SchemeOptions& options_b,
                 const PopulationConfig& pop, std::uint64_t day_seed,
                 unsigned jobs) {
  const auto n = static_cast<std::size_t>(pop.sessions_per_day);
  // One batch of 2N sessions: indices [0, N) are arm A, [N, 2N) arm B.
  // Both arms draw from the same session seeds, preserving the A/B pairing.
  const auto results = run_sessions_parallel(
      2 * n,
      [&](std::size_t i) {
        const bool is_b = i >= n;
        return day_session_config(is_b ? scheme_b : scheme_a,
                                  is_b ? options_b : options_a, pop, day_seed,
                                  is_b ? i - n : i);
      },
      jobs);
  AbDay day;
  day.arm_a = fold_day({results.begin(), results.begin() + n});
  day.arm_b = fold_day({results.begin() + n, results.end()});
  return day;
}

}  // namespace xlink::harness
