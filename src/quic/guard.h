// Hostile-peer hardening: protocol enforcement and the invariant auditor.
//
// Two defenses live here, both per connection:
//
//  - ResourceBudgets + violation accounting (GuardCounters): the connection
//    consults the budgets at every peer-driven allocation point (streams,
//    reassembly gaps, repair windows, duplicate packet numbers, ack and
//    repair frame rates) and escalates an overrun to a graceful
//    CONNECTION_CLOSE carrying the matching RFC 9000 transport error code.
//    Defaults are sized so honest traffic -- including lossy chaos runs and
//    FEC/re-injection duplication -- never comes near a limit; only
//    adversarial shapes (floods, bombs, sprays) trip them.
//
//  - InvariantAuditor: a cross-layer consistency walker, always compiled
//    in; the XLINK_AUDIT environment variable switches it off at run time.
//    Each tick it re-derives state the hot path maintains incrementally --
//    bytes_in_flight vs. the sent-packet ledger, pool acquire/release
//    balance, flow-control monotonicity, FEC stash byte accounting -- and
//    on the first mismatch renders a structured qlog dump and aborts (tests
//    install a capturing handler instead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "quic/types.h"
#include "sim/time.h"

namespace xlink::quic {

class Connection;

/// RFC 9000 §20 transport error codes (the subset the guard raises).
enum class TransportError : std::uint64_t {
  kNoError = 0x0,
  kInternalError = 0x1,
  kFlowControlError = 0x3,
  kStreamLimitError = 0x4,
  kStreamStateError = 0x5,
  kFinalSizeError = 0x6,
  kFrameEncodingError = 0x7,
  kConnectionIdLimitError = 0x9,
  kProtocolViolation = 0xa,
  kCryptoBufferExceeded = 0xd,
};

const char* transport_error_name(std::uint64_t code);

/// What the guard actually saw; finer-grained than the wire error code
/// (several kinds map onto PROTOCOL_VIOLATION). Exported in the
/// guard:violation trace event.
enum class ViolationKind : std::uint8_t {
  kConnectionFlowControl = 0,  // data_received_ beyond local_max_data_
  kStreamFlowControl,          // stream offset beyond the per-stream grant
  kStreamLimit,                // too many open receive streams
  kStreamIdInvalid,            // id shape this endpoint never issues
  kFinalSizeChanged,           // FIN moved, or data past the final size
  kLyingAck,                   // ack range beyond anything we ever sent
  kAckFlood,                   // ack frames far beyond our send rate
  kReplayFlood,                // duplicate packet numbers beyond budget
  kFrameIllegalInState,        // e.g. STREAM before the handshake completes
  kCidLimit,                   // NEW_CONNECTION_ID past the advertised limit
  kRepairOversized,            // REPAIR symbol larger than any legal packet
  kRepairFlood,                // repair frames far beyond our receive rate
};

const char* violation_kind_name(ViolationKind kind);

/// Per-connection resource budgets. Every limit bounds state a remote peer
/// can force this endpoint to hold; the defaults leave an order of
/// magnitude of headroom over anything honest traffic produces.
struct ResourceBudgets {
  /// Receive streams a peer may hold open: every id up to the highest one
  /// seen that has not retired (open streams and the holes below them).
  std::uint64_t max_open_recv_streams = 1024;

  /// Reassembly gaps tracked per receive stream before the IntervalSet
  /// collapses its smallest gap (soft defense: memory stays bounded, the
  /// phantom bytes are overwritten if the real data ever arrives).
  std::size_t max_recv_gaps_per_stream = 256;

  /// Duplicate (replayed) packet numbers tolerated before closing.
  std::uint64_t max_replayed_packets = 1024;

  /// Ack-frame rate limit: base allowance plus a per-sent-packet budget
  /// (honest peers generate well under one ack frame per packet we send).
  std::uint64_t ack_flood_base = 512;
  std::uint64_t ack_flood_per_packet_sent = 4;

  /// REPAIR-frame rate limit, same shape against our receive count.
  std::uint64_t repair_flood_base = 512;
  std::uint64_t repair_flood_per_packet_received = 2;
};

/// Anti-amplification: on unvalidated server paths, wire bytes sent may
/// not exceed this multiple of wire bytes received (RFC 9000 §8.1).
inline constexpr std::uint64_t kAmplificationFactor = 3;

/// Violation and budget-pressure accounting, exposed via
/// Connection::guard_counters() and summarized in the analyzer's security
/// report.
struct GuardCounters {
  std::uint64_t violations = 0;            // escalated to CONNECTION_CLOSE
  std::uint64_t replayed_packets = 0;      // duplicate PNs observed
  std::uint64_t ack_frames = 0;            // ack/ack_mp frames received
  std::uint64_t repair_frames = 0;         // REPAIR frames received
  std::uint64_t amplification_blocked = 0; // sends suppressed by the 3x cap
  std::uint64_t gap_collapses = 0;         // IntervalSet cap applications
  std::uint64_t phantom_bytes = 0;         // bytes synthesized by collapses
  std::uint64_t close_resends = 0;         // CONNECTION_CLOSE re-emissions
  // High-water marks (budget pressure even when nothing trips).
  std::uint64_t peak_open_recv_streams = 0;
  std::uint64_t peak_stream_gaps = 0;
};

/// Terminal state of a connection, for tests and the harness.
struct CloseInfo {
  bool closed = false;
  bool peer_initiated = false;   // close arrived rather than being sent
  std::uint64_t error_code = 0;  // transport error code on the wire
  std::string reason;
};

/// One failed audit check.
struct AuditFailure {
  const char* check = "";  // e.g. "bytes_in_flight_ledger"
  std::string detail;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
};

/// The auditor's one switch: true unless the XLINK_AUDIT environment
/// variable is set to "0", "off" or "false".
bool audit_enabled_by_env();

/// Re-derives cross-layer invariants from first principles and compares
/// with the incrementally maintained state. One instance per connection
/// (it keeps monotonicity snapshots between ticks). Enabled exactly when
/// audit_enabled_by_env() was true at construction.
class InvariantAuditor {
 public:
  InvariantAuditor() : enabled_(audit_enabled_by_env()) {}

  bool enabled() const { return enabled_; }
  /// Replaces the handler invoked on the first failed check; without one
  /// the auditor renders a qlog dump of the connection's trace ring to
  /// stderr and aborts.
  void set_on_failure(
      std::function<void(const Connection&, const AuditFailure&)> fn) {
    on_failure_ = std::move(fn);
  }

  /// Walks every invariant; returns the number of checks run. Traces an
  /// audit:check event through the connection's sink.
  std::size_t tick(const Connection& conn);

  /// Scheduler-contract check, called at the select_path() decision point:
  /// a scheduler must never hand back a path that is not schedulable
  /// (abandoned, standby, or declared dead / kProbing).
  void check_scheduled_path(const Connection& conn, PathId path);

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t failures() const { return failures_; }

 private:
  void fail(const Connection& conn, AuditFailure f);

  std::function<void(const Connection&, const AuditFailure&)> on_failure_;
  bool enabled_;
  std::uint64_t ticks_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
  // Flow-control monotonicity snapshots (these may only grow).
  std::uint64_t last_local_max_data_ = 0;
  std::uint64_t last_peer_max_data_ = 0;
  std::uint64_t last_data_received_ = 0;
  std::uint64_t last_data_consumed_ = 0;
  // Pool-balance baseline: the lowest signed outstanding count (acquires -
  // releases) observed, re-captured whenever the process-global counters
  // are reset under us (see tick() for why raw counters cannot be used).
  bool pool_baselined_ = false;
  std::int64_t pool_floor_ = 0;
  std::uint64_t pool_last_acquires_ = 0;
  std::uint64_t pool_last_releases_ = 0;
};

}  // namespace xlink::quic
