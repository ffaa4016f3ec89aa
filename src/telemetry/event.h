// Typed trace events for qlog-style endpoint tracing.
//
// Every event is a fixed-size POD so a per-session ring buffer of them is
// cache-friendly and recording is a couple of stores. The price is that
// field names are positional: which generic slot (`path`, `a` to `d`,
// `extra`, `flag`) holds which value is written down once, in the schema
// table `kSchema` in qlog.cpp, which names every field and drives both
// qlog export and import. The comments below say what each event records.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace xlink::telemetry {

/// Where an event was recorded. Client and server share one simulated
/// timeline, so one trace interleaves both endpoints plus session-level
/// components (the player), distinguished by this tag.
enum class Origin : std::uint8_t {
  kServer = 0,
  kClient = 1,
  kSession = 2,
};

enum class EventType : std::uint8_t {
  kPacketSent = 0,       // a packet left a path
  kPacketReceived,       // a packet arrived on a path
  kAckMp,                // an ACK_MP frame acked a path's packets
  kLoss,                 // LossDetection declared a packet lost, and why
  kPto,                  // a probe timeout fired on a path
  kCcState,              // a path's congestion-control snapshot
  kPathStatus,           // a path changed PathState::State
  kPathBound,            // the harness bound a path to a wireless tech
  kReinjection,          // a record was duplicated off its path
  kDoubleThresholdGate,  // the re-injection gate decided (Alg. 1 rule)
  kQoeSignal,            // the client's QoE feedback arrived
  kPlayerFirstFrame,     // the player showed its first frame
  kPlayerStall,          // a frame missed its deadline
  kPlayerResume,         // playback resumed after a stall
  kPlayerFinished,       // the player played every frame
  kFault,                // a fault window opened or closed on a path
  kPathHealth,           // a path changed PathState::Health
  kFecRepairSent,        // an FEC repair symbol was sent
  kFecRecovered,         // FEC rebuilt a lost packet
  kFecWasted,            // a window completed without its repair symbols
  kGuardViolation,       // a guard check fired against the peer
  kAuditCheck,           // the invariant auditor ran
  kFecStashEvicted,      // the FEC stash evicted a packet
  kCcRateSample,         // a delivery-rate sample and the BBR model
  kAbrDecision,          // the ABR controller chose a rung for a chunk
};

/// Sentinel for "value not available" in `a` to `d`.
constexpr std::uint64_t kNoValue = ~std::uint64_t{0};

/// qlog-style event name ("category:name"), e.g. "transport:packet_sent".
const char* event_name(EventType type);

/// Inverse of event_name; returns false for unknown names.
bool event_type_from_name(const char* name, EventType& out);

/// qlog "origin" value: "server", "client" or "session".
const char* origin_name(Origin o);

struct Event {
  sim::Time t = 0;
  EventType type = EventType::kPacketSent;
  Origin origin = Origin::kServer;
  std::uint8_t path = 0;
  std::uint8_t flag = 0;
  std::uint32_t extra = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  /// Fourth generic slot (brace-init factories that predate it leave it
  /// zero): kCcState's pacing rate and kAbrDecision's previous rung.
  std::uint64_t d = 0;

  bool operator==(const Event&) const = default;

  // ---- factories (keep call sites self-documenting) -------------------
  static Event packet_sent(sim::Time t, Origin o, std::uint8_t path,
                           std::uint64_t pn, std::uint64_t bytes,
                           bool ack_eliciting, bool is_reinjection) {
    return {t,
            EventType::kPacketSent,
            o,
            path,
            static_cast<std::uint8_t>((ack_eliciting ? 1 : 0) |
                                      (is_reinjection ? 2 : 0)),
            0,
            pn,
            bytes,
            0};
  }
  static Event packet_received(sim::Time t, Origin o, std::uint8_t path,
                               std::uint64_t pn, std::uint64_t bytes) {
    return {t, EventType::kPacketReceived, o, path, 0, 0, pn, bytes, 0};
  }
  static Event ack_mp(sim::Time t, Origin o, std::uint8_t path,
                      std::uint64_t largest, std::uint64_t acked_bytes,
                      std::uint64_t rtt_sample_us, bool has_sample) {
    return {t,      EventType::kAckMp, o,           path,
            static_cast<std::uint8_t>(has_sample ? 1 : 0), 0,
            largest, acked_bytes, rtt_sample_us};
  }
  static Event loss(sim::Time t, Origin o, std::uint8_t path,
                    std::uint64_t pn, std::uint64_t bytes,
                    std::uint8_t reason) {
    return {t, EventType::kLoss, o, path, reason, 0, pn, bytes, 0};
  }
  static Event pto(sim::Time t, Origin o, std::uint8_t path,
                   std::uint64_t count) {
    return {t, EventType::kPto, o, path, 0, 0, count, 0, 0};
  }
  static Event cc_state(sim::Time t, Origin o, std::uint8_t path,
                        std::uint64_t cwnd, std::uint64_t inflight,
                        std::uint64_t ssthresh, std::uint64_t srtt_us,
                        bool slow_start,
                        std::uint64_t pacing_rate = kNoValue) {
    return {t,
            EventType::kCcState,
            o,
            path,
            static_cast<std::uint8_t>(slow_start ? 1 : 0),
            static_cast<std::uint32_t>(
                srtt_us > 0xffffffffull ? 0xffffffffull : srtt_us),
            cwnd,
            inflight,
            ssthresh,
            pacing_rate};
  }
  static Event path_status(sim::Time t, Origin o, std::uint8_t path,
                           std::uint64_t state) {
    return {t, EventType::kPathStatus, o, path, 0, 0, state, 0, 0};
  }
  static Event path_bound(sim::Time t, Origin o, std::uint8_t path,
                          std::uint64_t tech) {
    return {t, EventType::kPathBound, o, path, 0, 0, tech, 0, 0};
  }
  static Event reinjection(sim::Time t, Origin o, std::uint8_t origin_path,
                           std::uint64_t bytes, std::uint64_t pn) {
    return {t, EventType::kReinjection, o, origin_path, 0, 0, bytes, pn, 0};
  }
  static Event double_threshold_gate(sim::Time t, Origin o, bool allowed,
                                     std::uint32_t rule, std::uint64_t dt_us,
                                     std::uint64_t deliver_time_max_us) {
    return {t,
            EventType::kDoubleThresholdGate,
            o,
            0,
            static_cast<std::uint8_t>(allowed ? 1 : 0),
            rule,
            dt_us,
            deliver_time_max_us,
            0};
  }
  static Event qoe_signal(sim::Time t, Origin o, std::uint64_t cached_bytes,
                          std::uint64_t cached_frames, std::uint64_t bps) {
    return {t, EventType::kQoeSignal, o, 0, 0, 0, cached_bytes, cached_frames,
            bps};
  }
  static Event player_first_frame(sim::Time t, std::uint64_t latency_us) {
    return {t,          EventType::kPlayerFirstFrame, Origin::kSession, 0, 0, 0,
            latency_us, 0,
            0};
  }
  static Event player_stall(sim::Time t, std::uint64_t frame) {
    return {t, EventType::kPlayerStall, Origin::kSession, 0, 0, 0, frame, 0, 0};
  }
  static Event player_resume(sim::Time t, std::uint64_t stall_us,
                             std::uint64_t frame) {
    return {t,        EventType::kPlayerResume, Origin::kSession, 0, 0, 0,
            stall_us, frame,
            0};
  }
  static Event player_finished(sim::Time t, std::uint64_t frames) {
    return {t, EventType::kPlayerFinished, Origin::kSession, 0, 0, 0, frames, 0,
            0};
  }
  static Event fault(sim::Time t, std::uint8_t path, std::uint64_t kind,
                     bool active, std::uint64_t window) {
    return {t,
            EventType::kFault,
            Origin::kSession,
            path,
            static_cast<std::uint8_t>(active ? 1 : 0),
            0,
            kind,
            window,
            0};
  }
  static Event path_health(sim::Time t, Origin o, std::uint8_t path,
                           std::uint64_t health, std::uint64_t pto_count) {
    return {t, EventType::kPathHealth, o, path, 0, 0, health, pto_count, 0};
  }
  static Event fec_repair_sent(sim::Time t, Origin o, std::uint8_t path,
                               std::uint64_t window, std::uint64_t bytes,
                               std::uint64_t first_pn, std::uint8_t k,
                               std::uint8_t r, std::uint8_t symbol_index) {
    return {t,
            EventType::kFecRepairSent,
            o,
            path,
            symbol_index,
            static_cast<std::uint32_t>(k) |
                (static_cast<std::uint32_t>(r) << 8),
            window,
            bytes,
            first_pn};
  }
  static Event fec_recovered(sim::Time t, Origin o, std::uint8_t path,
                             std::uint64_t pn, std::uint64_t window,
                             std::uint64_t latency_us) {
    return {t, EventType::kFecRecovered, o, path, 0, 0, pn, window,
            latency_us};
  }
  static Event fec_wasted(sim::Time t, Origin o, std::uint8_t path,
                          std::uint64_t window, std::uint64_t symbols) {
    return {t, EventType::kFecWasted, o, path, 0, 0, window, symbols, 0};
  }
  static Event guard_violation(sim::Time t, Origin o, std::uint8_t path,
                               std::uint64_t error_code, std::uint64_t kind,
                               std::uint64_t observed) {
    return {t, EventType::kGuardViolation, o, path, 0, 0, error_code, kind,
            observed};
  }
  static Event audit_check(sim::Time t, Origin o, std::uint64_t checks,
                           std::uint64_t failures,
                           std::uint64_t pool_outstanding) {
    return {t, EventType::kAuditCheck, o, 0, 0, 0, checks, failures,
            pool_outstanding};
  }
  static Event fec_stash_evicted(sim::Time t, Origin o, std::uint8_t path,
                                 std::uint64_t pn, std::uint64_t bytes,
                                 std::uint64_t stash_bytes_after) {
    return {t, EventType::kFecStashEvicted, o, path, 0, 0, pn, bytes,
            stash_bytes_after};
  }
  static Event cc_rate_sample(sim::Time t, Origin o, std::uint8_t path,
                              std::uint64_t rate_bytes_per_sec,
                              std::uint64_t btlbw_bytes_per_sec,
                              std::uint64_t min_rtt_us, bool app_limited) {
    return {t,
            EventType::kCcRateSample,
            o,
            path,
            static_cast<std::uint8_t>(app_limited ? 1 : 0),
            0,
            rate_bytes_per_sec,
            btlbw_bytes_per_sec,
            min_rtt_us};
  }
  static Event abr_decision(sim::Time t, std::uint64_t chunk,
                            std::uint64_t rung, std::uint64_t prev_rung,
                            std::uint64_t estimate_bps,
                            std::uint64_t buffer_ms) {
    return {t,
            EventType::kAbrDecision,
            Origin::kSession,
            0,
            0,
            static_cast<std::uint32_t>(
                buffer_ms > 0xffffffffull ? 0xffffffffull : buffer_ms),
            chunk,
            rung,
            estimate_bps,
            prev_rung};
  }
};

static_assert(sizeof(Event) <= 48, "Event must stay ring-buffer friendly");

}  // namespace xlink::telemetry
