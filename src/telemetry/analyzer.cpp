#include "telemetry/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "quic/guard.h"
#include "stats/table.h"

namespace xlink::telemetry {

namespace {

const char* path_state_name(std::uint64_t s) {
  switch (s) {
    case 0: return "validating";
    case 1: return "active";
    case 2: return "standby";
    case 3: return "abandoned";
  }
  return "?";
}

const char* health_name(std::uint64_t h) {
  switch (h) {
    case 0: return "good";
    case 1: return "degraded";
    case 2: return "probing";
  }
  return "?";
}

const char* fault_kind_label(std::uint64_t k) {
  switch (k) {
    case 0: return "blackout";
    case 1: return "uplink-drop";
    case 2: return "downlink-drop";
    case 3: return "corrupt";
    case 4: return "reorder";
    case 5: return "delay-spike";
    case 6: return "nat-rebind";
  }
  return "?";
}

const char* tech_name(std::uint64_t tech) {
  switch (tech) {
    case 0: return "wifi";
    case 1: return "lte";
    case 2: return "5g-sa";
    case 3: return "5g-nsa";
  }
  return "?";
}

std::string ms_str(sim::Duration d) {
  return stats::Table::fmt(sim::to_millis(d), 1) + "ms";
}

std::string sec_str(sim::Time t) {
  return stats::Table::fmt(sim::to_seconds(t), 3) + "s";
}

}  // namespace

AnalysisReport analyze(const ParsedTrace& trace,
                       sim::Duration attribution_window) {
  AnalysisReport rep;
  rep.meta = trace.meta;
  rep.events = trace.events.size();
  rep.dropped = trace.dropped;

  std::map<std::uint8_t, PathTimeline> paths;
  auto path_of = [&](std::uint8_t id) -> PathTimeline& {
    auto [it, inserted] = paths.try_emplace(id);
    if (inserted) it->second.path = id;
    return it->second;
  };
  std::map<std::uint8_t, FecPathReport> fec_paths;
  auto fec_path_of = [&](std::uint8_t id) -> FecPathReport& {
    auto [it, inserted] = fec_paths.try_emplace(id);
    if (inserted) it->second.path = id;
    return it->second;
  };
  std::map<std::uint8_t, CcPathReport> cc_paths;
  auto cc_path_of = [&](std::uint8_t id) -> CcPathReport& {
    auto [it, inserted] = cc_paths.try_emplace(id);
    if (inserted) it->second.path = id;
    return it->second;
  };
  auto touch = [](PathTimeline& p, sim::Time t) {
    if (p.first_activity == 0 && p.last_activity == 0) p.first_activity = t;
    p.last_activity = std::max(p.last_activity, t);
  };

  bool gate_open = false;
  bool gate_seen = false;
  sim::Time last_reinjection = 0;
  bool in_episode = false;
  sim::Time episode_end = 0;
  bool episode_stalled = false;
  constexpr sim::Duration kEpisodeGap = sim::seconds(1);
  constexpr sim::Duration kEpisodeStallHorizon = sim::seconds(2);

  // Open stall (kPlayerStall without a matching resume yet).
  constexpr std::size_t kNoStall = ~std::size_t{0};
  std::size_t open_stall = kNoStall;

  // Last seen health per (origin, path), for failover/resurrection counts.
  std::map<std::pair<std::uint8_t, std::uint8_t>, std::uint64_t> prev_health;

  auto close_episode = [&] {
    if (!in_episode) return;
    ++rep.reinjection.episodes;
    if (!episode_stalled) ++rep.reinjection.episodes_without_stall;
    in_episode = false;
  };

  for (const Event& e : trace.events) {
    rep.trace_end = std::max(rep.trace_end, e.t);
    if (in_episode && e.t > episode_end + kEpisodeStallHorizon)
      close_episode();

    switch (e.type) {
      case EventType::kPacketSent: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        if (e.origin == Origin::kServer) {  // downlink data direction
          ++p.packets_sent;
          p.bytes_sent += e.b;
          if (!(e.flag & 2)) rep.reinjection.first_tx_bytes += e.b;
        }
        break;
      }
      case EventType::kPacketReceived: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        ++p.packets_received;
        break;
      }
      case EventType::kAckMp:
        touch(path_of(e.path), e.t);
        break;
      case EventType::kLoss: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        ++p.packets_lost;
        if (e.flag == 1) ++p.lost_time_threshold;
        break;
      }
      case EventType::kPto: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        ++p.ptos;
        break;
      }
      case EventType::kCcState: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        p.last_cwnd = e.a;
        if (e.extra > 0) {
          p.min_srtt_us = std::min<std::uint64_t>(p.min_srtt_us, e.extra);
          p.max_srtt_us = std::max<std::uint64_t>(p.max_srtt_us, e.extra);
        }
        if (e.d != kNoValue) {
          cc_path_of(e.path).pacing_rate_last = e.d;
          rep.cc.pacing_seen = true;
        }
        break;
      }
      case EventType::kCcRateSample: {
        CcPathReport& c = cc_path_of(e.path);
        ++c.rate_samples;
        ++rep.cc.rate_samples;
        if (e.flag & 1) ++c.app_limited_samples;
        c.btlbw_last = e.b;
        c.btlbw_peak = std::max(c.btlbw_peak, e.b);
        if (e.c > 0) c.min_rtt_us = std::min<std::uint64_t>(c.min_rtt_us, e.c);
        touch(path_of(e.path), e.t);
        break;
      }
      case EventType::kAbrDecision: {
        AbrReport& a = rep.abr;
        ++a.decisions;
        if (e.b >= a.rung_decisions.size()) a.rung_decisions.resize(e.b + 1);
        ++a.rung_decisions[e.b];
        if (e.d != kNoValue && e.d != e.b) {
          ++a.switches;
          if (e.b > e.d) {
            ++a.up_switches;
            a.switch_magnitude += e.b - e.d;
          } else {
            ++a.down_switches;
            a.switch_magnitude += e.d - e.b;
          }
        }
        a.last_rung = e.b;
        a.estimate_last_bps = e.c == kNoValue ? 0 : e.c;
        a.buffer_at_decision_ms.add(static_cast<double>(e.extra));
        break;
      }
      case EventType::kPathStatus: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        // Both endpoints trace the same transition; collapse repeats.
        if (p.status_changes.empty() || p.status_changes.back().second != e.a)
          p.status_changes.emplace_back(e.t, e.a);
        break;
      }
      case EventType::kPathBound:
        path_of(e.path).tech = e.a;
        break;
      case EventType::kReinjection: {
        PathTimeline& p = path_of(e.path);
        touch(p, e.t);
        ++p.reinjections_from;
        p.reinjected_bytes_from += e.a;
        rep.reinjection.reinjected_bytes += e.a;
        ++rep.reinjection.reinjection_events;
        if (!in_episode || e.t > last_reinjection + kEpisodeGap) {
          close_episode();
          in_episode = true;
          episode_stalled = false;
        }
        last_reinjection = e.t;
        episode_end = e.t;
        break;
      }
      case EventType::kDoubleThresholdGate: {
        const bool allowed = (e.flag & 1) != 0;
        ++rep.reinjection.gate_decisions;
        if (allowed) ++rep.reinjection.gate_open_decisions;
        if (gate_seen && allowed != gate_open) ++rep.reinjection.gate_flips;
        gate_open = allowed;
        gate_seen = true;
        break;
      }
      case EventType::kQoeSignal:
        break;
      case EventType::kPlayerFirstFrame:
        rep.first_frame_latency_us = e.a;
        break;
      case EventType::kPlayerStall: {
        ++rep.reinjection.stalls;
        if (in_episode && e.t <= episode_end + kEpisodeStallHorizon)
          episode_stalled = true;
        StallReport s;
        s.start = e.t;
        s.frame = e.a;
        s.gate_open_at_stall = gate_open;
        const sim::Time window_start =
            e.t > attribution_window ? e.t - attribution_window : 0;
        std::map<std::uint8_t, std::uint64_t> badness;
        for (const Event& w : trace.events) {
          if (w.t < window_start) continue;
          if (w.t > e.t) break;
          if (w.type == EventType::kLoss) {
            ++s.losses_in_window;
            ++badness[w.path];
          } else if (w.type == EventType::kPto) {
            ++s.ptos_in_window;
            badness[w.path] += 3;  // a PTO is a stronger outage signal
          } else if (w.type == EventType::kReinjection) {
            ++s.reinjections_in_window;
          }
        }
        std::uint64_t worst = 0;
        for (const auto& [path, score] : badness) {
          if (score > worst) {
            worst = score;
            s.worst_path = path;
          }
        }
        std::ostringstream why;
        if (s.ptos_in_window > 0) {
          why << "path " << int(s.worst_path) << " outage ("
              << s.ptos_in_window << " PTOs, " << s.losses_in_window
              << " losses in window)";
        } else if (s.losses_in_window > 0) {
          why << "loss burst on path " << int(s.worst_path) << " ("
              << s.losses_in_window << " losses in window)";
        } else {
          why << "bandwidth shortfall (no loss/PTO in window)";
        }
        if (!s.gate_open_at_stall && gate_seen)
          why << "; re-injection gate was OFF";
        else if (s.reinjections_in_window > 0)
          why << "; " << s.reinjections_in_window
              << " re-injections already in flight";
        s.attribution = why.str();
        open_stall = rep.stalls.size();
        rep.stalls.push_back(std::move(s));
        break;
      }
      case EventType::kPlayerResume:
        if (open_stall != kNoStall) {
          rep.stalls[open_stall].duration = e.a;
          rep.stalls[open_stall].resolved = true;
          open_stall = kNoStall;
        }
        break;
      case EventType::kPlayerFinished:
        rep.finished = true;
        break;
      case EventType::kFault: {
        FailoverEvent f;
        f.t = e.t;
        f.path = e.path;
        f.origin = e.origin;
        f.is_fault = true;
        f.code = e.a;
        f.fault_active = (e.flag & 1) != 0;
        f.window = e.b;
        rep.failover_timeline.push_back(f);
        if (f.fault_active) ++rep.faults_fired;
        break;
      }
      case EventType::kFecRepairSent: {
        FecPathReport& f = fec_path_of(e.path);
        ++f.repair_packets;
        f.repair_bytes += e.b;
        if (e.flag == 0) ++f.windows;  // first symbol of the window
        ++rep.fec.repair_packets;
        rep.fec.repair_bytes += e.b;
        touch(path_of(e.path), e.t);
        break;
      }
      case EventType::kFecRecovered: {
        FecPathReport& f = fec_path_of(e.path);
        ++f.recovered;
        ++rep.fec.recovered;
        rep.fec.recovery_latency_ms.add(static_cast<double>(e.c) / 1000.0);
        touch(path_of(e.path), e.t);
        break;
      }
      case EventType::kFecWasted: {
        FecPathReport& f = fec_path_of(e.path);
        f.wasted_symbols += e.b;
        rep.fec.wasted_symbols += e.b;
        break;
      }
      case EventType::kGuardViolation: {
        ++rep.security.total_violations;
        auto it = std::find_if(
            rep.security.violations.begin(), rep.security.violations.end(),
            [&](const ViolationCount& v) {
              return v.error_code == e.a && v.kind == e.b;
            });
        if (it == rep.security.violations.end()) {
          ViolationCount v;
          v.error_code = e.a;
          v.kind = e.b;
          v.count = 1;
          v.first = e.t;
          v.path = e.path;
          rep.security.violations.push_back(v);
        } else {
          ++it->count;
        }
        break;
      }
      case EventType::kAuditCheck: {
        SecurityReport& s = rep.security;
        ++s.audit_events;
        s.audit_checks = std::max(s.audit_checks, e.a);
        s.audit_failures = std::max(s.audit_failures, e.b);
        s.pool_outstanding_peak = std::max(s.pool_outstanding_peak, e.c);
        break;
      }
      case EventType::kFecStashEvicted: {
        SecurityReport& s = rep.security;
        ++s.stash_evictions;
        s.stash_evicted_bytes += e.b;
        s.stash_bytes_peak = std::max(s.stash_bytes_peak, e.c);
        break;
      }
      case EventType::kPathHealth: {
        FailoverEvent f;
        f.t = e.t;
        f.path = e.path;
        f.origin = e.origin;
        f.code = e.a;
        f.pto_count = e.b;
        rep.failover_timeline.push_back(f);
        ++rep.health_transitions;
        const auto key = std::make_pair(static_cast<std::uint8_t>(e.origin),
                                        e.path);
        const std::uint64_t prev =
            prev_health.count(key) ? prev_health[key] : 0;
        if (e.a == 2) ++rep.failovers;                  // -> probing
        if (prev == 2 && e.a == 0) ++rep.resurrections; // probing -> good
        prev_health[key] = e.a;
        break;
      }
    }
  }
  close_episode();

  // Stalls resolved within the same instant are not user-visible; the
  // player cancels them from its rebuffer count, so drop them here too.
  std::erase_if(rep.stalls, [](const StallReport& s) {
    return s.resolved && s.duration == 0;
  });
  rep.reinjection.stalls = rep.stalls.size();

  rep.paths.reserve(paths.size());
  for (auto& [id, p] : paths) rep.paths.push_back(std::move(p));
  rep.fec.paths.reserve(fec_paths.size());
  for (auto& [id, f] : fec_paths) rep.fec.paths.push_back(std::move(f));
  rep.cc.paths.reserve(cc_paths.size());
  for (auto& [id, c] : cc_paths) rep.cc.paths.push_back(std::move(c));
  return rep;
}

std::string render_report(const AnalysisReport& rep) {
  std::ostringstream os;
  os << "=== trace ===\n";
  os << "scenario: "
     << (rep.meta.scenario.empty() ? "(unnamed)" : rep.meta.scenario)
     << "  scheme: " << (rep.meta.scheme.empty() ? "?" : rep.meta.scheme)
     << "  seed: " << rep.meta.seed << "\n";
  os << "events: " << rep.events << " (" << rep.dropped
     << " dropped by ring)  span: " << sec_str(rep.trace_end) << "  video "
     << (rep.finished ? "finished" : "did not finish") << "\n";
  if (rep.first_frame_latency_us != kNoValue)
    os << "first frame: " << ms_str(rep.first_frame_latency_us) << "\n";

  os << "\n=== per-path timeline ===\n";
  stats::Table table({"path", "tech", "sent", "MB", "rcvd", "lost", "t-thr",
                      "pto", "reinj", "srtt min/max", "states"});
  for (const PathTimeline& p : rep.paths) {
    std::string states;
    for (const auto& [t, s] : p.status_changes) {
      if (!states.empty()) states += " ";
      states += sec_str(t) + ":" + path_state_name(s);
    }
    std::string srtt = "-";
    if (p.max_srtt_us > 0)
      srtt = ms_str(p.min_srtt_us == kNoValue ? 0 : p.min_srtt_us) + "/" +
             ms_str(p.max_srtt_us);
    table.add_row({std::to_string(int(p.path)),
                   p.tech == kNoValue ? "?" : tech_name(p.tech),
                   std::to_string(p.packets_sent),
                   stats::Table::fmt(double(p.bytes_sent) / 1e6, 2),
                   std::to_string(p.packets_received),
                   std::to_string(p.packets_lost),
                   std::to_string(p.lost_time_threshold),
                   std::to_string(p.ptos),
                   std::to_string(p.reinjections_from), srtt, states});
  }
  os << table.render();

  const ReinjectionEfficiency& r = rep.reinjection;
  os << "\n=== re-injection efficiency ===\n";
  os << "first-tx bytes: " << stats::Table::fmt(double(r.first_tx_bytes) / 1e6, 2)
     << " MB, re-injected: "
     << stats::Table::fmt(double(r.reinjected_bytes) / 1e6, 3) << " MB ("
     << stats::Table::fmt(100.0 * r.redundancy_ratio(), 2)
     << "% redundancy)\n";
  os << "re-injection events: " << r.reinjection_events << " in " << r.episodes
     << " episodes; " << r.episodes_without_stall
     << " episodes not followed by a stall within 2s (upper bound on stalls"
        " avoided)\n";
  if (r.gate_decisions > 0) {
    os << "double-threshold gate: " << r.gate_decisions << " decisions, "
       << r.gate_open_decisions << " ON ("
       << stats::Table::fmt(
              100.0 * double(r.gate_open_decisions) / double(r.gate_decisions),
              1)
       << "%), " << r.gate_flips << " flips\n";
  }

  if (rep.fec.present()) {
    const FecReport& f = rep.fec;
    os << "\n=== fec ===\n";
    stats::Table ft({"path", "windows", "repair pkts", "repair KB",
                     "recovered", "wasted"});
    for (const FecPathReport& p : f.paths) {
      ft.add_row({std::to_string(int(p.path)), std::to_string(p.windows),
                  std::to_string(p.repair_packets),
                  stats::Table::fmt(double(p.repair_bytes) / 1e3, 1),
                  std::to_string(p.recovered),
                  std::to_string(p.wasted_symbols)});
    }
    os << ft.render();
    const std::uint64_t useful = f.recovered;
    const std::uint64_t total_symbols = f.repair_packets;
    if (total_symbols > 0) {
      os << "repair symbols: " << total_symbols << " sent, " << useful
         << " recovered an erasure, " << f.wasted_symbols << " wasted ("
         << stats::Table::fmt(
                100.0 * double(f.wasted_symbols) / double(total_symbols), 1)
         << "% of symbols bought nothing)\n";
    }
    if (!f.recovery_latency_ms.empty()) {
      os << "recovery latency: mean "
         << stats::Table::fmt(f.recovery_latency_ms.mean(), 2) << "ms, p95 "
         << stats::Table::fmt(f.recovery_latency_ms.percentile(95.0), 2)
         << "ms (from the window's last source arrival)\n";
      // A PTO-driven retransmit repairs the same erasure no sooner than the
      // PTO timer plus one more flight: lower-bound it with the path srtt.
      std::uint64_t srtt_lo = kNoValue;
      for (const PathTimeline& p : rep.paths)
        if (p.min_srtt_us != kNoValue)
          srtt_lo = std::min<std::uint64_t>(srtt_lo, p.min_srtt_us);
      if (srtt_lo != kNoValue && srtt_lo > 0) {
        const double pto_floor_ms = 2.0 * double(srtt_lo) / 1000.0;
        os << "vs PTO retransmit floor ~" << stats::Table::fmt(pto_floor_ms, 1)
           << "ms (PTO wait + retransmit flight at min srtt "
           << ms_str(srtt_lo) << "): "
           << stats::Table::fmt(
                  pto_floor_ms / std::max(0.001, f.recovery_latency_ms.mean()),
                  1)
           << "x slower than FEC recovery\n";
      }
    }
    // Redundancy-overhead attribution: which mechanism paid for protection.
    const std::uint64_t first_tx = rep.reinjection.first_tx_bytes;
    if (first_tx > 0) {
      const double reinj_pct =
          100.0 * double(rep.reinjection.reinjected_bytes) / double(first_tx);
      const double fec_pct = 100.0 * double(f.repair_bytes) / double(first_tx);
      os << "redundancy attribution: re-injection "
         << stats::Table::fmt(reinj_pct, 2) << "% + fec repairs "
         << stats::Table::fmt(fec_pct, 2) << "% = "
         << stats::Table::fmt(reinj_pct + fec_pct, 2)
         << "% of first-tx bytes\n";
    }
  }

  if (rep.cc.present()) {
    const CcReport& c = rep.cc;
    os << "\n=== congestion control ===\n";
    stats::Table ct({"path", "samples", "app-ltd", "btlbw peak MB/s",
                     "btlbw last MB/s", "min rtt", "pacing MB/s"});
    for (const CcPathReport& p : c.paths) {
      ct.add_row(
          {std::to_string(int(p.path)), std::to_string(p.rate_samples),
           std::to_string(p.app_limited_samples),
           stats::Table::fmt(double(p.btlbw_peak) / 1e6, 2),
           stats::Table::fmt(double(p.btlbw_last) / 1e6, 2),
           p.min_rtt_us == kNoValue ? "-" : ms_str(p.min_rtt_us),
           p.pacing_rate_last == 0
               ? "-"
               : stats::Table::fmt(double(p.pacing_rate_last) / 1e6, 2)});
    }
    os << ct.render();
    os << "rate samples: " << c.rate_samples
       << (c.pacing_seen ? " (pacing engaged)\n" : " (pacing off)\n");
  }

  if (rep.abr.present()) {
    const AbrReport& a = rep.abr;
    os << "\n=== abr ===\n";
    os << a.decisions << " decision(s), " << a.switches << " switch(es) ("
       << a.up_switches << " up / " << a.down_switches
       << " down, magnitude " << a.switch_magnitude << ")\n";
    os << "rung distribution:";
    for (std::size_t r = 0; r < a.rung_decisions.size(); ++r)
      os << " " << r << ":" << a.rung_decisions[r];
    os << " (last rung " << a.last_rung << ")\n";
    if (a.buffer_at_decision_ms.count() > 0) {
      os << "buffer at decision: p50 "
         << stats::Table::fmt(a.buffer_at_decision_ms.median(), 0)
         << " ms, min " << stats::Table::fmt(a.buffer_at_decision_ms.min(), 0)
         << " ms\n";
    }
    if (a.estimate_last_bps > 0) {
      os << "last rate estimate: "
         << stats::Table::fmt(double(a.estimate_last_bps) / 1e6, 2)
         << " Mb/s\n";
    }
  }

  if (!rep.failover_timeline.empty()) {
    os << "\n=== failover timeline ===\n";
    os << rep.faults_fired << " fault window(s) fired, "
       << rep.health_transitions << " health transition(s), " << rep.failovers
       << " failover(s), " << rep.resurrections << " resurrection(s)\n";
    for (const FailoverEvent& f : rep.failover_timeline) {
      os << sec_str(f.t) << " path " << int(f.path) << " ";
      if (f.is_fault) {
        os << "fault " << fault_kind_label(f.code) << " (window " << f.window
           << ") " << (f.fault_active ? "begins" : "ends");
      } else {
        os << origin_name(f.origin) << " health -> " << health_name(f.code)
           << " (pto_count " << f.pto_count << ")";
      }
      os << "\n";
    }
  }

  if (rep.security.present()) {
    const SecurityReport& s = rep.security;
    os << "\n=== security report ===\n";
    if (s.total_violations > 0) {
      os << s.total_violations << " guard violation(s):\n";
      stats::Table vt({"error", "violation", "count", "first", "path"});
      for (const ViolationCount& v : s.violations) {
        vt.add_row({quic::transport_error_name(v.error_code),
                    quic::violation_kind_name(
                        static_cast<quic::ViolationKind>(v.kind)),
                    std::to_string(v.count), sec_str(v.first),
                    std::to_string(int(v.path))});
      }
      os << vt.render();
    } else {
      os << "no guard violations\n";
    }
    if (s.audit_events > 0) {
      os << "invariant auditor: " << s.audit_checks << " tick(s), "
         << s.audit_failures << " failure(s), pool outstanding peak "
         << s.pool_outstanding_peak << " buffer(s)\n";
    }
    if (s.stash_evictions > 0) {
      os << "fec stash: " << s.stash_evictions << " eviction(s), "
         << stats::Table::fmt(double(s.stash_evicted_bytes) / 1e3, 1)
         << " KB dropped, post-eviction occupancy peak "
         << stats::Table::fmt(double(s.stash_bytes_peak) / 1e3, 1) << " KB\n";
    }
  }

  os << "\n=== stall attribution ===\n";
  if (rep.stalls.empty()) {
    os << "no player stalls in trace\n";
  } else {
    for (const StallReport& s : rep.stalls) {
      os << "stall @ " << sec_str(s.start) << " frame " << s.frame << " ";
      if (s.resolved)
        os << "(" << ms_str(s.duration) << ")";
      else
        os << "(unresolved at trace end)";
      os << ": " << s.attribution << "\n";
    }
    os << rep.stalls.size() << " stall(s), " << r.stalls
       << " counted by player\n";
  }
  return os.str();
}

}  // namespace xlink::telemetry
