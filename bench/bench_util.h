// Shared helpers for the experiment benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "trace/trace.h"

namespace xlink::bench {

/// `--trace-exemplar[=path]`: every session-running bench accepts this
/// flag and, when present, records one exemplar session as a qlog trace
/// for the xlink_qlog analyzer. apply() arms the first config it is
/// offered (callers pass their most representative session).
class TraceExemplar {
 public:
  /// Scans argv; unrelated arguments are left for the bench to interpret.
  static TraceExemplar parse(int argc, char** argv) {
    TraceExemplar ex;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--trace-exemplar") == 0) {
        ex.on_ = true;
      } else if (std::strncmp(a, "--trace-exemplar=", 17) == 0) {
        ex.on_ = true;
        ex.path_ = a + 17;
      }
    }
    return ex;
  }

  /// Arms tracing on `cfg` if the flag is set and no session was armed
  /// yet. The qlog lands at the explicit path or `<label>.qlog`.
  bool apply(harness::SessionConfig& cfg, const std::string& label) {
    if (!on_ || used_) return false;
    used_ = true;
    cfg.trace.enabled = true;
    cfg.trace.label = label;
    cfg.trace.qlog_path = path_.empty() ? label + ".qlog" : path_;
    std::printf("tracing exemplar session -> %s\n",
                cfg.trace.qlog_path.c_str());
    return true;
  }

  bool on() const { return on_; }

 private:
  bool on_ = false;
  bool used_ = false;
  std::string path_;
};

/// Builds a Mahimahi trace from piecewise-constant rate segments.
inline trace::LinkTrace piecewise_trace(
    const std::vector<std::pair<double, sim::Duration>>& segments_mbps) {
  std::vector<std::uint32_t> ms;
  double credit = 0.0;
  std::uint64_t t_ms = 0;
  for (const auto& [mbps, dur] : segments_mbps) {
    const double pkts_per_ms = mbps * 1e6 / 8.0 / trace::kDeliveryMtu / 1000.0;
    const std::uint64_t seg_ms = dur / sim::kMillisecond;
    for (std::uint64_t i = 0; i < seg_ms; ++i) {
      ++t_ms;
      credit += pkts_per_ms;
      while (credit >= 1.0) {
        ms.push_back(static_cast<std::uint32_t>(t_ms));
        credit -= 1.0;
      }
    }
  }
  if (ms.empty())
    ms.push_back(static_cast<std::uint32_t>(std::max<std::uint64_t>(t_ms, 1)));
  return trace::LinkTrace(std::move(ms));
}

/// Time series sample of one session.
struct TimelineSample {
  double t_seconds = 0.0;
  double buffer_mb = 0.0;
  double reinject_mb = 0.0;
  double inflight_kb_path0 = 0.0;
  double inflight_kb_path1 = 0.0;
  double cwnd_kb_path0 = 0.0;
  double cwnd_kb_path1 = 0.0;
};

/// Runs one session sampling the player buffer and server re-injection.
inline std::pair<harness::SessionResult, std::vector<TimelineSample>>
run_with_timeline(harness::SessionConfig cfg,
                  sim::Duration period = sim::millis(100)) {
  harness::Session session(std::move(cfg));
  std::vector<TimelineSample> timeline;
  session.sample_period = period;
  session.on_sample = [&timeline](harness::Session& s) {
    TimelineSample sample;
    sample.t_seconds = sim::to_seconds(s.loop().now());
    if (s.player())
      sample.buffer_mb =
          static_cast<double>(s.player()->buffered_bytes_ahead()) / 1e6;
    sample.reinject_mb =
        static_cast<double>(s.server_conn().stats().reinjected_bytes) / 1e6;
    auto path_sample = [&s](quic::PathId id, double& inflight, double& cwnd) {
      if (!s.server_conn().has_path(id)) return;
      const auto& p = s.server_conn().path_state(id);
      inflight = static_cast<double>(p.loss.bytes_in_flight()) / 1e3;
      cwnd = static_cast<double>(p.cc->cwnd_bytes()) / 1e3;
    };
    path_sample(0, sample.inflight_kb_path0, sample.cwnd_kb_path0);
    path_sample(1, sample.inflight_kb_path1, sample.cwnd_kb_path1);
    timeline.push_back(sample);
  };
  auto result = session.run();
  return {std::move(result), std::move(timeline)};
}

/// Median of a summary of seconds, in ms. Scales each sample before
/// interpolating, so the result matches a summary of ms samples bit for bit.
inline double median_ms(const stats::Summary& seconds) {
  stats::Summary ms;
  for (double s : seconds.samples()) ms.add(s * 1000.0);
  return ms.median();
}

inline std::string fmt(double v, int precision = 2) {
  return stats::Table::fmt(v, precision);
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace xlink::bench
