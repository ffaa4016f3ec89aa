#include "core/xlink_scheduler.h"

#include "mpquic/scheduler_util.h"

namespace xlink::core {

std::optional<quic::PathId> XlinkScheduler::select_path(
    quic::Connection& conn) {
  // Staleness-aware: stop trusting a path whose acks have gone silent
  // (the QoE-driven "swiftly adapt packet distribution" behaviour).
  return mpquic::pick_for_queue_head(conn, /*staleness_aware=*/true);
}

void XlinkScheduler::maybe_reinject(quic::Connection& conn) {
  const GateDecision d =
      controller_.decide_explained(conn.latest_peer_qoe(),
                                   max_deliver_time(conn));
  // Gate decisions are re-evaluated on every pump iteration; trace only the
  // edges (and the very first decision) to keep traces readable.
  if (!gate_traced_ || d.allowed != last_decision_) {
    XLINK_TRACE(conn.trace(),
                telemetry::Event::double_threshold_gate(
                    conn.loop().now(), conn.trace_origin(), d.allowed,
                    static_cast<std::uint32_t>(d.rule),
                    d.dt ? *d.dt : telemetry::kNoValue,
                    d.deliver_time_max ? *d.deliver_time_max
                                       : telemetry::kNoValue));
    gate_traced_ = true;
  }
  last_decision_ = d.allowed;
  // The FEC framer obeys the same QoE gate as re-injection: when the
  // client's buffer is healthy (or the dip is hopeless), proactive
  // redundancy is suppressed too.
  conn.set_fec_gate(redundancy_has_fec(config_.redundancy) && d.allowed);
  if (!last_decision_) return;
  if (redundancy_has_reinject(config_.redundancy))
    reinject(conn, config_.insert_mode);
}

std::shared_ptr<XlinkScheduler> make_xlink_scheduler(
    XlinkSchedulerConfig config) {
  return std::make_shared<XlinkScheduler>(config);
}

}  // namespace xlink::core
