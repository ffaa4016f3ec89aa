// A/B test driver: per-day populations of video sessions.
//
// The paper's online evaluation runs two contrast groups (e.g. SP vs
// XLINK) side by side over days, each day serving a fresh mix of users,
// networks, and videos. We reproduce the structure: a "day" is a
// population of sessions whose conditions (technology pairing, trace
// class, RTTs, loss, cross-ISP penalty, video parameters) are drawn from
// a day-seeded distribution; both arms replay the SAME drawn conditions,
// which is the A/B property that makes day-to-day comparisons meaningful.
#pragma once

#include <vector>

#include "harness/scenario.h"
#include "stats/summary.h"

namespace xlink::harness {

struct PopulationConfig {
  int sessions_per_day = 40;
  /// Probability that the cellular path is 5G NSA instead of LTE.
  double p_5g = 0.2;
  /// Probability that a session's Wi-Fi is only moderately provisioned
  /// (1.3-2.2x the video bitrate with mild dips) rather than calm.
  double p_walking_wifi = 0.6;
  /// Probability that the cellular path fades (deep periodic dips): the
  /// condition that exposes vanilla-MP to both paths' hiccups while SP,
  /// pinned to Wi-Fi, never notices.
  double p_fading_cellular = 0.7;
  /// Probability of an outage-heavy session (both paths degrade).
  double p_outage_heavy = 0.0;
  /// Probability the secondary path crosses an ISP border (Table 4 delay).
  double p_cross_isp = 0.4;
  double max_loss = 0.002;
  sim::Duration time_limit = sim::seconds(90);
  /// ABR controller every session of the population runs (kFixed = the
  /// legacy fixed-bitrate workload). The ladder is derived per session
  /// from the drawn video bitrate (BitrateLadder::scaled).
  video::AbrAlgorithm abr = video::AbrAlgorithm::kFixed;
};

struct DayMetrics {
  stats::Summary rct;          // per-chunk request completion time (s)
  stats::Summary first_frame;  // first-video-frame latency (s)
  stats::Summary startup_delay;  // time to playback start (s)
  /// Per ABR session bitrate utility, [0,1]; empty for fixed-bitrate days.
  stats::Summary abr_utility;
  double rebuffer_rate = 0.0;  // sum(rebuffer)/sum(play) over the day
  double redundancy_pct = 0.0; // extra egress from re-injection + FEC (%)
  int sessions = 0;
  /// Per-session registries merged in session-index order (bit-identical
  /// for every job count, like every other field here). Day totals of the
  /// session counters live here, e.g. unfinished downloads are
  /// "session.count" - "session.downloads_finished" and ABR switches are
  /// "session.abr.switches".
  telemetry::MetricsRegistry metrics;
};

/// Draws the network/video conditions of one session (scheme-independent).
SessionConfig draw_session_conditions(const PopulationConfig& pop,
                                      std::uint64_t session_seed);

/// Runs one day of one arm: same session seeds => same conditions across
/// arms, only the transport scheme differs. Sessions run on `jobs` worker
/// threads (0 = XLINK_JOBS env var / hardware_concurrency, 1 = serial);
/// results are folded in session-index order, so DayMetrics are
/// bit-identical for every job count. Implemented in harness/parallel.cpp.
DayMetrics run_day(core::Scheme scheme, const core::SchemeOptions& options,
                   const PopulationConfig& pop, std::uint64_t day_seed,
                   unsigned jobs = 0);

}  // namespace xlink::harness
