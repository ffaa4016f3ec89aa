#include "quic/guard.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "net/packet_buffer.h"
#include "quic/connection.h"
#include "telemetry/qlog.h"

namespace xlink::quic {

const char* transport_error_name(std::uint64_t code) {
  switch (static_cast<TransportError>(code)) {
    case TransportError::kNoError: return "NO_ERROR";
    case TransportError::kInternalError: return "INTERNAL_ERROR";
    case TransportError::kFlowControlError: return "FLOW_CONTROL_ERROR";
    case TransportError::kStreamLimitError: return "STREAM_LIMIT_ERROR";
    case TransportError::kStreamStateError: return "STREAM_STATE_ERROR";
    case TransportError::kFinalSizeError: return "FINAL_SIZE_ERROR";
    case TransportError::kFrameEncodingError: return "FRAME_ENCODING_ERROR";
    case TransportError::kConnectionIdLimitError:
      return "CONNECTION_ID_LIMIT_ERROR";
    case TransportError::kProtocolViolation: return "PROTOCOL_VIOLATION";
    case TransportError::kCryptoBufferExceeded:
      return "CRYPTO_BUFFER_EXCEEDED";
  }
  return "UNKNOWN";
}

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kConnectionFlowControl:
      return "connection_flow_control";
    case ViolationKind::kStreamFlowControl: return "stream_flow_control";
    case ViolationKind::kStreamLimit: return "stream_limit";
    case ViolationKind::kStreamIdInvalid: return "stream_id_invalid";
    case ViolationKind::kFinalSizeChanged: return "final_size_changed";
    case ViolationKind::kLyingAck: return "lying_ack";
    case ViolationKind::kAckFlood: return "ack_flood";
    case ViolationKind::kReplayFlood: return "replay_flood";
    case ViolationKind::kFrameIllegalInState:
      return "frame_illegal_in_state";
    case ViolationKind::kCidLimit: return "cid_limit";
    case ViolationKind::kRepairOversized: return "repair_oversized";
    case ViolationKind::kRepairFlood: return "repair_flood";
  }
  return "unknown";
}

bool audit_enabled_by_env() {
  const char* v = std::getenv("XLINK_AUDIT");
  if (!v) return true;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false");
}

namespace {

/// Outstanding pooled-buffer debt (acquires - releases) tolerated on this
/// thread before the auditor calls it a leak.
constexpr std::uint64_t kMaxPoolDebtSlots = 1u << 16;

/// Default terminal handler: structured dump (the qlog of the trace ring,
/// when the connection has one, plus the failed check) then abort.
void dump_and_abort(const Connection& conn, const AuditFailure& f) {
  std::ostringstream os;
  os << "\n==== XLINK invariant audit failure ====\n"
     << "check:    " << f.check << "\n"
     << "detail:   " << f.detail << "\n"
     << "expected: " << f.expected << "\n"
     << "actual:   " << f.actual << "\n"
     << "role:     "
     << (conn.role() == Role::kServer ? "server" : "client") << "\n"
     << "time:     " << conn.loop().now() << " us\n";
  if (conn.trace() && conn.trace()->enabled()) {
    telemetry::QlogMeta meta;
    meta.title = "invariant audit failure";
    meta.scenario = f.check;
    os << "---- qlog dump ----\n";
    telemetry::write_qlog(os, *conn.trace(), meta);
  }
  std::cerr << os.str() << std::flush;
  std::abort();
}

}  // namespace

void InvariantAuditor::fail(const Connection& conn, AuditFailure f) {
  ++failures_;
  if (on_failure_) {
    on_failure_(conn, f);
    return;
  }
  dump_and_abort(conn, f);
}

std::size_t InvariantAuditor::tick(const Connection& conn) {
  ++ticks_;
  std::size_t ran = 0;

  // 1. Per-path: the incrementally kept bytes_in_flight must equal the
  //    sum of the ack-eliciting records still in the path's sent-packet
  //    queue. Abandoned paths are skipped: they are never scheduled again.
  for (const auto& [id, p] : conn.paths_) {
    if (p->state == PathState::State::kAbandoned) continue;
    std::uint64_t ledger = 0;
    for (const SentRecord& rec : p->loss.ledger())
      if (rec.ack_eliciting) ledger += rec.bytes;
    ++ran;
    if (ledger != p->loss.bytes_in_flight()) {
      AuditFailure f;
      f.check = "bytes_in_flight_ledger";
      f.detail = "path " + std::to_string(id) +
                 ": sent-record sum diverged from bytes_in_flight";
      f.expected = ledger;
      f.actual = p->loss.bytes_in_flight();
      fail(conn, std::move(f));
      return ran;
    }
  }

  // 2. Pooled-buffer balance on this thread, bracketed around a running
  //    floor. The counters are process-global: other components hold
  //    buffers across this auditor's lifetime and embedders reset the
  //    counters at quiescent points (the leak tests), so
  //    neither `releases <= acquires` nor any fixed baseline holds in
  //    general. What must hold is that the signed outstanding count
  //    (acquires - releases) stays within the debt budget of the lowest
  //    value this auditor has seen: sustained growth above the floor is a
  //    leak, and a collapse far below it is systematic double release.
  //    Legitimate dips (releases of pre-baseline buffers) just lower the
  //    floor. A counter reset (either counter moving backwards)
  //    re-baselines the window.
  {
    const auto& c = net::PacketBufferPool::local().counters();
    const std::int64_t signed_outstanding =
        static_cast<std::int64_t>(c.acquires) -
        static_cast<std::int64_t>(c.releases);
    const std::int64_t budget =
        static_cast<std::int64_t>(kMaxPoolDebtSlots);
    const bool counters_reset =
        c.acquires < pool_last_acquires_ || c.releases < pool_last_releases_;
    pool_last_acquires_ = c.acquires;
    pool_last_releases_ = c.releases;
    if (!pool_baselined_ || counters_reset) {
      pool_baselined_ = true;
      pool_floor_ = signed_outstanding;
    }
    ++ran;
    if (signed_outstanding < pool_floor_ - budget) {
      AuditFailure f;
      f.check = "pool_balance";
      f.detail = "releases outrun acquires beyond the budget (double release)";
      f.expected = static_cast<std::uint64_t>(pool_floor_);
      f.actual = static_cast<std::uint64_t>(signed_outstanding);
      fail(conn, std::move(f));
      return ran;
    }
    if (signed_outstanding < pool_floor_) pool_floor_ = signed_outstanding;
    ++ran;
    if (signed_outstanding - pool_floor_ > budget) {
      AuditFailure f;
      f.check = "pool_debt";
      f.detail = "outstanding pooled buffers exceed the debt budget";
      f.expected = kMaxPoolDebtSlots;
      f.actual = static_cast<std::uint64_t>(signed_outstanding - pool_floor_);
      fail(conn, std::move(f));
      return ran;
    }
  }

  // 3. Flow-control monotonicity: limits only grow, consumption never
  //    exceeds receipt, and our own sender honors the peer's limit.
  {
    ++ran;
    const bool monotone = conn.local_max_data_ >= last_local_max_data_ &&
                          conn.peer_max_data_ >= last_peer_max_data_ &&
                          conn.data_received_ >= last_data_received_ &&
                          conn.data_consumed_ >= last_data_consumed_;
    if (!monotone) {
      AuditFailure f;
      f.check = "flow_control_monotonicity";
      f.detail = "a flow-control counter moved backwards";
      f.expected = last_local_max_data_;
      f.actual = conn.local_max_data_;
      fail(conn, std::move(f));
      return ran;
    }
    last_local_max_data_ = conn.local_max_data_;
    last_peer_max_data_ = conn.peer_max_data_;
    last_data_received_ = conn.data_received_;
    last_data_consumed_ = conn.data_consumed_;

    ++ran;
    if (conn.data_consumed_ > conn.data_received_) {
      AuditFailure f;
      f.check = "flow_control_consumed";
      f.detail = "application consumed more than was ever received";
      f.expected = conn.data_received_;
      f.actual = conn.data_consumed_;
      fail(conn, std::move(f));
      return ran;
    }
    ++ran;
    if (conn.data_sent_ > conn.peer_max_data_) {
      AuditFailure f;
      f.check = "flow_control_sender";
      f.detail = "first-transmission bytes exceed the peer's MAX_DATA";
      f.expected = conn.peer_max_data_;
      f.actual = conn.data_sent_;
      fail(conn, std::move(f));
      return ran;
    }
  }

  // 4. FEC recovery-stash accounting: the incrementally maintained byte
  //    counter must match a from-scratch walk of the stash rings.
  if (conn.fec_recovery_) {
    ++ran;
    const std::size_t tracked = conn.fec_recovery_->stash_bytes_tracked();
    const std::size_t actual =
        conn.fec_recovery_->audit_recompute_stash_bytes();
    if (tracked != actual) {
      AuditFailure f;
      f.check = "fec_stash_accounting";
      f.detail = "stash byte counter diverged from ring contents";
      f.expected = actual;
      f.actual = tracked;
      fail(conn, std::move(f));
      return ran;
    }
  }

  checks_ += ran;
  XLINK_TRACE(conn.trace(),
              telemetry::Event::audit_check(
                  conn.loop().now(), conn.trace_origin(),
                  static_cast<std::uint64_t>(ran), failures_,
                  net::PacketBufferPool::local().counters().acquires -
                      net::PacketBufferPool::local().counters().releases));
  return ran;
}

void InvariantAuditor::check_scheduled_path(const Connection& conn,
                                            PathId path) {
  ++checks_;
  if (!conn.has_path(path)) {
    AuditFailure f;
    f.check = "scheduler_unknown_path";
    f.detail = "scheduler selected a path id the connection does not have";
    f.actual = path;
    fail(conn, std::move(f));
    return;
  }
  const PathState& p = conn.path_state(path);
  if (!p.schedulable()) {
    AuditFailure f;
    f.check = "scheduler_unschedulable_path";
    f.detail = "scheduler selected a non-schedulable path (state " +
               std::to_string(static_cast<int>(p.state)) + ", health " +
               std::to_string(static_cast<int>(p.health)) + ")";
    f.actual = path;
    fail(conn, std::move(f));
  }
}

}  // namespace xlink::quic
