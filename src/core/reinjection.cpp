#include "core/reinjection.h"

#include "mpquic/scheduler_util.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace xlink::core {
namespace {

std::pair<int, int> item_class(const quic::SendItem& it) {
  return {it.frame_priority, it.stream_priority};
}

std::pair<int, int> record_class(const quic::SentRecord& rec) {
  std::pair<int, int> best{INT_MIN, INT_MIN};
  for (const auto& it : rec.items) best = std::max(best, item_class(it));
  return best;
}

}  // namespace

void reinject(quic::Connection& conn, quic::InsertMode mode) {
  const quic::PathList schedulable = conn.schedulable_path_ids();
  if (schedulable.size() < 2) return;
  const sim::Time now = conn.loop().now();

  // Re-arm interval: a record whose duplicate has not produced an ack
  // within the fast path's delivery time is still blocked -- duplicate it
  // again (the QoE gate continues to bound the cost).
  sim::Duration rearm = sim::millis(200);
  for (quic::PathId id : schedulable) {
    const auto& p = conn.path_state(id);
    rearm = std::max(rearm, p.rtt.rtt_plus_var());
  }

  // Highest priority class still waiting for FIRST transmission; re-injected
  // duplicates queued earlier do not hold back further re-injection.
  std::optional<std::pair<int, int>> frontier;
  for (const auto& item : conn.send_queue()) {
    if (item.is_reinjection) continue;
    const auto c = item_class(item);
    if (!frontier || c > *frontier) frontier = c;
  }

  // Duplicates travel "into the fast path" (Fig. 3): only packets NOT on
  // the current fastest path are candidates -- the fast path's own packets
  // are what everything else is being protected against waiting for. The
  // metric is staleness-aware: a path whose acks went silent mid-dip is
  // not "fast" no matter what its stale RTT estimator claims.
  std::optional<quic::PathId> fastest;
  sim::Duration fastest_rtt = 0;
  for (quic::PathId id : schedulable) {
    const auto& p = conn.path_state(id);
    const sim::Duration rtt = mpquic::effective_rtt(conn, p);
    if (!fastest || rtt < fastest_rtt) {
      fastest = id;
      fastest_rtt = rtt;
    }
  }

  for (quic::PathId id : conn.path_ids()) {
    if (fastest && id == *fastest) continue;
    auto& p = conn.path_state(id);
    if (p.state == quic::PathState::State::kAbandoned) continue;
    // A failed-over path holds only dead-path probes (its stream data was
    // rescued at failover) -- nothing worth duplicating.
    if (p.health == quic::PathState::Health::kProbing) continue;
    const sim::Duration overdue_after =
        std::max<sim::Duration>(p.rtt.rtt_plus_var(), sim::millis(200));
    for (quic::SentRecord& rec : p.loss.unacked()) {
      if (rec.items.empty() || rec.is_reinjection) continue;
      if (rec.reinjected) {
        // Re-arm only when the earlier duplicate did not resolve the block:
        // the record is overdue on its own path and the duplicate has had a
        // full fast-path round trip to land.
        if (now - rec.reinjected_at < rearm) continue;
        if (now - rec.sent_time < overdue_after) continue;
      }
      // Eligible once every queued first transmission is of a strictly
      // lower class ("the last packet of this class has been sent").
      if (frontier && record_class(rec) <= *frontier) continue;
      // Mutual awareness with FEC: a packet a recent repair window covers
      // can be rebuilt from the repair symbol -- duplicating it too would
      // pay the redundancy cost twice.
      if (conn.fec_covers(id, rec.pn)) continue;
      const std::uint64_t bytes = conn.reinject_record(rec, mode);
      if (bytes > 0) {
        XLINK_TRACE(conn.trace(),
                    telemetry::Event::reinjection(
                        now, conn.trace_origin(),
                        static_cast<std::uint8_t>(id), bytes, rec.pn));
      }
    }
  }
}

std::optional<sim::Duration> max_deliver_time(const quic::Connection& conn) {
  std::optional<sim::Duration> max;
  for (quic::PathId id : conn.path_ids()) {
    const auto& p = conn.path_state(id);
    if (p.state == quic::PathState::State::kAbandoned) continue;
    if (p.health == quic::PathState::Health::kProbing) continue;
    if (!p.loss.has_ack_eliciting_in_flight()) continue;
    const sim::Duration t = p.rtt.rtt_plus_var();
    if (!max || t > *max) max = t;
  }
  return max;
}

}  // namespace xlink::core
