// Multipath QUIC connection.
//
// Implements the transport described in the paper's §6 / draft-liu-
// multipath-quic on top of the simulator:
//  - simplified 1-RTT handshake exchanging transport parameters, including
//    enable_multipath with single-path fallback;
//  - connection IDs issued with NEW_CONNECTION_ID; the CID sequence number
//    doubles as the path identifier and selects the per-path packet number
//    space and AEAD nonce;
//  - path initialization via PATH_CHALLENGE / PATH_RESPONSE, path close via
//    PATH_STATUS(abandon);
//  - ACK_MP per path with QoE signal piggybacking, with a pluggable return
//    path policy (fastest-path vs original-path);
//  - per-path RTT estimation, RFC 9002-style loss detection and PTO, and
//    decoupled congestion control (Cubic default);
//  - a priority-ordered packet send queue (the paper's pkt_send_q) driven
//    by a pluggable multipath Scheduler, with re-injection support;
//  - streams with connection- and stream-level flow control, and the
//    paper's stream_send API for video-frame priority ranges.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fec/framer.h"
#include "net/datagram.h"
#include "quic/cc.h"
#include "quic/cc_coupled.h"
#include "quic/crypto.h"
#include "quic/delivery_rate.h"
#include "quic/pacer.h"
#include "quic/frame.h"
#include "quic/guard.h"
#include "quic/loss_detection.h"
#include "quic/packet.h"
#include "quic/rtt.h"
#include "quic/scheduler.h"
#include "quic/stream.h"
#include "quic/types.h"
#include "sim/event_loop.h"
#include "telemetry/trace_sink.h"

namespace xlink::quic {

enum class Role { kClient, kServer };

/// Path ids in ascending order, held inline for up to kInline paths (the
/// default connection-ID limit) and on the heap beyond, so listing a
/// connection's paths on the per-packet path allocates nothing.
class PathList {
 public:
  static constexpr std::size_t kInline = 8;

  void push_back(PathId id) {
    if (size_ < kInline) {
      inline_[size_++] = id;
      return;
    }
    if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(id);
    ++size_;
  }
  const PathId* begin() const {
    return size_ <= kInline ? inline_.data() : spill_.data();
  }
  const PathId* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::array<PathId, kInline> inline_{};
  std::vector<PathId> spill_;
  std::size_t size_ = 0;
};

/// Per-path transport state (public so schedulers can inspect and, for
/// baselines like MPTCP-style penalization, adjust).
struct PathState {
  enum class State { kValidating, kActive, kStandby, kAbandoned };

  /// Local liveness verdict, orthogonal to the peer-visible State:
  ///   kGood     - acks arriving, schedule freely;
  ///   kDegraded - consecutive PTOs accumulating, still schedulable;
  ///   kProbing  - declared dead after the consecutive-PTO budget; data is
  ///               steered off, only capped exponential-backoff probes go
  ///               out until one is acked (resurrection) or the path is
  ///               abandoned.
  enum class Health : std::uint8_t { kGood = 0, kDegraded, kProbing };

  PathId id = 0;
  State state = State::kValidating;
  Health health = Health::kGood;
  RttEstimator rtt;
  std::unique_ptr<CongestionController> cc;
  /// Shared per-path delivery-rate estimation: stamps outgoing packets,
  /// extracts rate samples on ack. BBR consumes the samples; ECF/BLEST
  /// read the windowed-max bandwidth; loss-based CC uses the app-limited
  /// marker (RFC 9002 §7.8).
  DeliveryRateSampler sampler;
  /// Token-bucket pacer (inactive unless Config::pacing.enabled).
  Pacer pacer;
  /// This path's sent packets (the paper's unacked_q) and their ledger.
  LossDetection loss;
  PacketNumber next_pn = 0;
  sim::Time last_ack_eliciting_sent = 0;
  sim::Time last_ack_received = 0;  // last time this path's data was acked
  std::uint32_t pto_count = 0;

  // Dead-path probing state (health == kProbing).
  sim::Time next_probe_at = 0;
  sim::Duration probe_interval = 0;
  std::uint32_t probes_sent = 0;

  // Receive side of this path's packet number space.
  std::vector<AckRange> recv_ranges;  // sorted descending, capped
  /// Every pn below this counts as received: it rises past each range the
  /// cap drops (RFC 9000 §13.2.3), so a replay there is still a replay.
  PacketNumber recv_floor = 0;
  sim::Time largest_recv_time = 0;
  bool ack_pending = false;
  int ack_eliciting_unacked = 0;
  sim::Time ack_deadline = 0;

  // PATH_STATUS bookkeeping.
  std::uint64_t status_seq_out = 0;
  std::uint64_t status_seq_in = 0;

  std::array<std::uint8_t, 8> challenge_data{};

  // Stats.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  bool usable() const {
    return state == State::kActive || state == State::kValidating;
  }
  /// Eligible for scheduler-driven data: active AND not declared dead.
  bool schedulable() const {
    return state == State::kActive && health != Health::kProbing;
  }
  std::size_t cwnd_available() const {
    if (pacer_deferred) return 0;  // no budget until the next token release
    const std::size_t cwnd = cc->cwnd_bytes();
    const std::size_t inflight = loss.bytes_in_flight();
    return inflight >= cwnd ? 0 : cwnd - inflight;
  }
  /// Transient, pump-scoped: the pacer refused this path mid-pump, so it
  /// reports no cwnd headroom and the scheduler falls through to the other
  /// paths instead of the whole pump stalling behind one token bucket.
  /// Cleared before arm_timers so the pacer wake still gets scheduled.
  bool pacer_deferred = false;
  /// Bytes/sec estimate for schedulers. Both the sampler's windowed-max
  /// btlbw and cwnd/srtt are lower bounds on path capacity -- btlbw lags
  /// when recent flights were app-limited (e.g. right after the
  /// handshake), cwnd/srtt lags when the window has not opened yet -- so
  /// take whichever currently bounds tighter.
  double bandwidth_estimate_bytes_per_sec() const {
    const double btlbw = sampler.btlbw_bytes_per_sec();
    const double srtt = sim::to_seconds(rtt.smoothed());
    const double from_cwnd =
        srtt > 0.0 ? static_cast<double>(cc->cwnd_bytes()) / srtt : 0.0;
    return btlbw > from_cwnd ? btlbw : from_cwnd;
  }
};

class Connection {
 public:
  struct Config {
    Role role = Role::kClient;
    TransportParams params;
    CcAlgorithm cc = CcAlgorithm::kCubic;
    std::uint64_t aead_key = 0x5eed;  // both endpoints must agree
    AckPathPolicy ack_policy = AckPathPolicy::kFastestPath;
    std::shared_ptr<Scheduler> scheduler;  // nullptr -> single path only
    /// TCP-style RTO: collapse cwnd on probe timeout (MPTCP baseline).
    bool tcp_style_rto = false;
    /// Server id embedded in locally issued CIDs for QUIC-LB routing; the
    /// peer's value must be mirrored (in a real handshake CIDs arrive on
    /// the wire; the simulator derives them on both sides).
    std::uint8_t cid_server_id = 0;
    std::uint8_t peer_cid_server_id = 0;
    /// Telemetry sink shared by the session (nullptr or disabled = no
    /// tracing; the hooks then cost one predictable branch each).
    telemetry::TraceSink* trace = nullptr;

    /// Forward erasure correction (src/fec/): sender-side REPAIR framing
    /// over sealed packets, or receiver-side recovery. With `fec.enabled`,
    /// `fec.protect` runs the FecFramer on this endpoint's outgoing
    /// packets; otherwise the endpoint keeps the RecoveryBuffer.
    fec::FecConfig fec;

    /// Hostile-peer hardening: per-connection resource budgets consulted
    /// at every peer-driven allocation point (guard.h).
    ResourceBudgets budgets;

    /// Token-bucket pacing of scheduler-driven data sends. Off by default:
    /// enabling it changes packet departure times, so existing experiment
    /// arms stay byte-identical unless they opt in.
    PacerConfig pacing;
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t ptos = 0;
    std::uint64_t bytes_sent = 0;            // wire bytes out
    std::uint64_t bytes_received = 0;        // wire bytes in
    std::uint64_t stream_bytes_sent = 0;     // first transmissions
    std::uint64_t retransmitted_bytes = 0;   // loss-triggered resends
    std::uint64_t reinjected_bytes = 0;      // scheduler duplicates
    std::uint64_t auth_failures = 0;         // AEAD open failures
    std::uint64_t acks_sent = 0;
    std::uint64_t failovers = 0;             // paths declared dead (kProbing)
    std::uint64_t path_resurrections = 0;    // probe acked, path back in use
    std::uint64_t dead_path_probes = 0;      // backoff probes while kProbing

    // Forward erasure correction (src/fec/).
    std::uint64_t fec_repair_packets_sent = 0;  // REPAIR packets emitted
    std::uint64_t fec_repair_bytes_sent = 0;    // repair SYMBOL bytes
    std::uint64_t fec_windows_protected = 0;    // windows with >=1 repair
    std::uint64_t fec_recovered_packets = 0;    // erasures reconstructed
    std::uint64_t fec_wasted_symbols = 0;       // repairs that bought nothing
    std::uint64_t fec_erased_seen = 0;          // erasures observed in windows

    /// Redundancy ratio: duplicated bytes (re-injection egress plus FEC
    /// repair symbols) / first-transmission stream bytes.
    double redundancy_ratio() const {
      return stream_bytes_sent == 0
                 ? 0.0
                 : static_cast<double>(reinjected_bytes +
                                       fec_repair_bytes_sent) /
                       static_cast<double>(stream_bytes_sent);
    }
  };

  using SendFn = std::function<void(PathId, net::Datagram)>;

  Connection(sim::EventLoop& loop, Config config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- wiring -------------------------------------------------------
  /// Binds the datagram output (the harness routes to emulated paths).
  void set_send_callback(SendFn fn) { send_fn_ = std::move(fn); }

  /// Feeds a datagram that arrived on `path` (network-path index == path
  /// id; the harness guarantees the mapping). Takes ownership: the packet
  /// is decrypted in place inside the buffer, and stream payloads are
  /// borrowed from it for the duration of the call.
  void on_datagram(PathId path, net::Datagram datagram);

  // ---- lifecycle ----------------------------------------------------
  /// Client: starts the handshake on the primary path (path 0).
  void connect();
  bool is_established() const { return established_; }
  bool multipath_enabled() const { return multipath_enabled_; }
  bool is_closed() const { return closed_; }
  void close(std::uint64_t error_code, const std::string& reason);

  /// RFC 9000 §10.2 termination states: kClosing after this endpoint sends
  /// CONNECTION_CLOSE (the close is re-sent, rate-limited, while peer
  /// packets keep arriving); kDraining after receiving one (nothing more
  /// is ever sent).
  enum class CloseState : std::uint8_t { kOpen, kClosing, kDraining };
  CloseState close_state() const { return close_state_; }
  /// How and why the connection ended (valid once is_closed()).
  const CloseInfo& close_info() const { return close_info_; }

  /// Violation and budget-pressure accounting (guard.h).
  const GuardCounters& guard_counters() const { return guard_; }
  /// The connection's invariant auditor (tests install capture handlers).
  InvariantAuditor& auditor() { return auditor_; }
  /// Forces one audit walk now regardless of sampling; returns checks run.
  std::size_t audit_now() { return auditor_.tick(*this); }

  std::function<void()> on_established;

  // ---- paths --------------------------------------------------------
  /// Client: initiates a new path; returns its id, or nullopt if multipath
  /// is off, the handshake is pending, or no connection IDs are available.
  std::optional<PathId> open_path();

  /// Marks a path abandoned, tells the peer, and requeues its in-flight
  /// data onto the remaining paths.
  void abandon_path(PathId id);

  /// Sends PATH_STATUS(standby/available) for a path.
  void set_path_status(PathId id, std::uint64_t status);

  /// Connection-migration baseline: abandons all current paths and moves
  /// to `id` with congestion state reset (RFC 9000 §9.5 behaviour).
  void migrate_to_path(PathId id);

  /// NAT rebind on a path: the peer will see a new 4-tuple, so the path
  /// must re-validate before carrying data again (PATH_CHALLENGE /
  /// PATH_RESPONSE). The harness wires FaultInjector::on_nat_rebind here.
  void rebind_path(PathId id);

  PathList path_ids() const;
  PathList active_path_ids() const;
  /// Active paths that are also healthy enough to schedule data on
  /// (excludes kProbing paths); what schedulers and the re-injector use.
  PathList schedulable_path_ids() const;
  bool has_path(PathId id) const { return paths_.contains(id); }
  PathState& path_state(PathId id) { return *paths_.at(id); }
  const PathState& path_state(PathId id) const { return *paths_.at(id); }

  std::function<void(PathId)> on_path_validated;

  // ---- streams ------------------------------------------------------
  /// Opens the next client-initiated bidirectional stream.
  StreamId open_stream();

  /// Writes data (optionally final) to a send stream with default priority.
  void stream_send(StreamId id, std::vector<std::uint8_t> data, bool fin);

  /// The paper's extended stream_send: marks [position, position+size) of
  /// this write's data with a video-frame priority.
  void stream_send_prioritized(StreamId id, std::vector<std::uint8_t> data,
                               bool fin, int frame_priority,
                               std::uint64_t position, std::uint64_t size);

  /// Sets the stream-level priority used by priority re-injection.
  void set_stream_priority(StreamId id, int priority);

  /// Live streams only: nullptr once a stream has retired (below).
  SendStream* send_stream(StreamId id);
  RecvStream* recv_stream(StreamId id);
  const RecvStream* recv_stream(StreamId id) const;

  /// Reads up to `max` bytes from a receive stream, updating flow-control
  /// grants (the application-facing read API). The read that leaves the
  /// stream finished (FIN seen, every byte read) retires it.
  std::vector<std::uint8_t> consume_stream(StreamId id, std::size_t max);

  std::function<void(StreamId)> on_stream_readable;
  std::function<void(StreamId)> on_stream_data_finished;

  // ---- QoE feedback ---------------------------------------------------
  /// Client side: supplies the latest player QoE snapshot for ACK_MP.
  void set_qoe_provider(std::function<std::optional<QoeSignal>()> fn) {
    qoe_provider_ = std::move(fn);
  }
  /// Server side: observers of received QoE signals.
  std::function<void(const QoeSignal&)> on_qoe_feedback;
  const std::optional<QoeSignal>& latest_peer_qoe() const {
    return latest_peer_qoe_;
  }

  /// Sends a standalone QOE_CONTROL_SIGNALS frame (decoupled from acks).
  void send_qoe_signal(const QoeSignal& qoe);

  // ---- scheduler services --------------------------------------------
  std::deque<SendItem>& send_queue() { return pkt_send_q_; }
  const std::deque<SendItem>& send_queue() const { return pkt_send_q_; }

  /// Inserts an item into pkt_send_q per the insertion mode.
  void enqueue_item(SendItem item, InsertMode mode);

  /// Duplicates the still-unacked stream ranges of `record` into the send
  /// queue (marked re-injection, carrying origin path) with the given
  /// insertion mode. Returns the number of bytes queued.
  std::uint64_t reinject_record(SentRecord& record, InsertMode mode);

  /// Runs the send loop: due acks, queued control frames, then
  /// scheduler-driven stream data; then re-arms the timers. The public
  /// calls that queue work end with it; tests call it to kick the loop.
  void pump_send();

  // ---- forward erasure correction ------------------------------------
  /// Double-threshold gate push-down: the XLINK scheduler forwards its
  /// re-injection gate decision so FEC obeys the same cost control.
  void set_fec_gate(bool allowed) {
    if (fec_framer_) fec_framer_->set_gate(allowed);
  }
  /// True if a recently emitted repair window covers `pn` on `path`; the
  /// re-injection (core::reinject) skips such records (mutual awareness).
  bool fec_covers(PathId path, PacketNumber pn) const {
    return fec_framer_ && fec_framer_->covers(path, pn, loop_.now());
  }

  sim::EventLoop& loop() { return loop_; }
  const sim::EventLoop& loop() const { return loop_; }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  Role role() const { return config_.role; }

  /// Session telemetry sink (may be nullptr); schedulers trace through it.
  telemetry::TraceSink* trace() const { return config_.trace; }
  telemetry::Origin trace_origin() const {
    return config_.role == Role::kServer ? telemetry::Origin::kServer
                                         : telemetry::Origin::kClient;
  }

  /// Peer's flow-control limit headroom at connection level.
  std::uint64_t connection_send_window() const;

 private:
  friend class InvariantAuditor;  // re-derives private cross-layer state

  // Guard machinery.
  /// Records the violation (trace + counters) and escalates to a graceful
  /// CONNECTION_CLOSE with the given transport error code. No-op when the
  /// connection is already terminating.
  void close_with_error(TransportError code, ViolationKind kind,
                        std::uint64_t observed, PathId path);
  /// True if `frame` may legally arrive in the current connection state
  /// (pre-handshake only CRYPTO/PING/PADDING/ACK/CLOSE are accepted).
  bool frame_legal_in_state(const Frame& frame) const;
  /// Emits the recorded CONNECTION_CLOSE on the given path.
  void send_close_frame(PathId path);

  // Send-side machinery.
  bool send_one_packet(PathId path, bool ignore_cwnd = false);
  /// Sends `frame` alone in a packet built in the scratch frame list.
  bool send_control_packet(PathId path, Frame frame, bool count_inflight);
  void send_pending_acks();
  /// ACK_MP for `p`'s receive ranges (carrying the client's QoE signal);
  /// clears the path's pending-ack state and counts the ack as sent.
  AckMpFrame take_ack(PathState& p);
  /// Seals `frames` into a pooled buffer and hands it to send_fn_. The
  /// frame and item lists are caller storage, so callers reuse scratch.
  /// Returns false when nothing went on the wire (unknown path, or the
  /// send was suppressed by the anti-amplification cap -- suppressed
  /// stream/control content is re-queued, never dropped).
  bool build_and_send(PathId path, std::vector<Frame>& frames,
                      std::span<SendItem> items, bool ack_eliciting);
  std::optional<PathId> ack_carrier_path(PathId acked_path) const;
  PathId fastest_active_path() const;

  // Receive-side machinery.
  void handle_frames(PathId path, const std::vector<Frame>& frames);
  /// A peer QoE signal (from ACK_MP or QOE_CONTROL_SIGNALS): stored (the
  /// scheduler reads it as latest_peer_qoe()), traced, and passed to the
  /// on_qoe_feedback observer.
  void on_peer_qoe(const QoeSignal& qoe);
  void handle_repair_frame(PathId path, const RepairFrame& f);
  double path_loss_estimate(const PathState& p) const;
  void handle_ack_info(PathId acked_path, const AckInfo& info);
  void handle_stream_frame(const StreamFrame& f);
  void handle_crypto(const CryptoFrame& f);
  void note_received(PathState& p, PacketNumber pn, bool ack_eliciting);
  bool already_received(const PathState& p, PacketNumber pn) const;

  // Loss/timer machinery.
  /// Re-derives the path's pacing rate from its controller (or cwnd/srtt
  /// for controllers with no opinion) after CC state changes.
  void update_pacing(PathState& p);
  void trace_cc_state(const PathState& p);
  void on_packets_lost(PathState& p, const std::vector<LostPacket>& lost);
  void requeue_record(const SentRecord& record);
  /// Requeues the payload of every record p still carries (requeue_record)
  /// and leaves the records in p's ledger only.
  void rescue_in_flight(PathState& p);
  void on_pto(PathState& p);
  void arm_timers();
  void on_timer();

  // Path health machinery.
  sim::Duration path_pto_interval(const PathState& p) const;
  void set_path_health(PathState& p, PathState::Health health);
  bool has_other_schedulable(PathId id) const;
  void fail_over_path(PathState& p);
  void resurrect_path(PathState& p);
  void probe_dead_path(PathState& p);

  // Path/CID helpers.
  void trace_path_state(const PathState& p);
  PathState& create_path(PathId id, PathState::State state);
  void issue_connection_ids();
  void queue_control(PathId path, Frame frame);
  /// Queues PATH_STATUS(`status`) about `p` on the fastest active path,
  /// numbered by p's outgoing status sequence.
  void queue_path_status(PathState& p, std::uint64_t status);
  /// Queues MAX_DATA / MAX_STREAM_DATA grants after the application read
  /// from `stream`.
  void queue_flow_updates(RecvStream& stream);

  // Stream retirement (RFC 9000 §3): a send stream goes once the peer has
  // acknowledged every byte and the FIN, a receive stream once the
  // application has read it through its FIN. Its id is remembered, so a
  // late or duplicated frame for it is acknowledged and otherwise dropped.
  // Ids are kept as stream indices (id / 4, the only id shape in use).
  static bool is_retired(const IntervalSet& retired, StreamId id) {
    return retired.contains(id / 4, id / 4 + 1);
  }
  static void mark_retired(IntervalSet& retired, StreamId id) {
    retired.add(id / 4, id / 4 + 1);
  }
  /// The live send stream `id`, opened on first use; nullptr if retired.
  SendStream* open_send_stream(StreamId id);

  // Handshake helpers.
  void send_handshake_initial();

  sim::EventLoop& loop_;
  Config config_;
  PacketProtection aead_;
  SendFn send_fn_;

  bool established_ = false;
  bool multipath_enabled_ = false;
  bool closed_ = false;  // true whenever close_state_ != kOpen
  bool handshake_sent_ = false;

  CloseState close_state_ = CloseState::kOpen;
  CloseInfo close_info_;
  GuardCounters guard_;
  InvariantAuditor auditor_;
  std::uint64_t audit_pump_calls_ = 0;       // subsampled tick counter
  std::uint64_t close_recv_since_send_ = 0;  // packets since last close sent
  std::uint64_t close_resend_threshold_ = 1; // doubles per re-send

  std::map<PathId, std::unique_ptr<PathState>> paths_;
  std::deque<SendItem> pkt_send_q_;
  /// Control frames waiting per path (acks excluded; built on demand).
  std::map<PathId, std::deque<Frame>> pending_control_;

  // Live streams; per-stream flow-control state lives in the stream.
  std::map<StreamId, SendStream> send_streams_;
  std::map<StreamId, RecvStream> recv_streams_;
  // Retired stream indices: one interval while streams retire in order.
  IntervalSet retired_send_;
  IntervalSet retired_recv_;
  StreamId next_stream_ = 0;

  // Connection-level flow control: peer's limit on us / our grant to it.
  std::uint64_t peer_max_data_ = 0;
  std::uint64_t local_max_data_ = 0;
  std::uint64_t data_sent_ = 0;       // stream bytes charged to peer_max_data_
  std::uint64_t data_received_ = 0;   // stream bytes charged to local grant
  std::uint64_t data_consumed_ = 0;   // stream bytes read by the application

  // Connection IDs: ours issued to the peer, and the peer's issued to us.
  std::map<std::uint32_t, ConnectionId> local_cids_;
  std::map<std::uint32_t, ConnectionId> peer_cids_;
  std::uint32_t next_local_cid_seq_ = 0;
  bool cids_issued_ = false;

  std::optional<TransportParams> peer_params_;
  std::function<std::optional<QoeSignal>()> qoe_provider_;
  std::optional<QoeSignal> latest_peer_qoe_;

  sim::EventId timer_id_ = 0;
  bool in_pump_ = false;
  std::shared_ptr<LiaGroup> lia_group_;  // only for kCoupledLia

  // Reusable frame-list storage for the receive and send hot paths; moved
  // out while in use (re-entrancy safe) and moved back with capacity kept.
  std::vector<Frame> recv_frames_scratch_;
  std::vector<Frame> send_frames_scratch_;
  std::vector<SendItem> send_items_scratch_;

  // Forward erasure correction: at most one is set (see Config::fec).
  std::unique_ptr<fec::FecFramer> fec_framer_;
  std::unique_ptr<fec::RecoveryBuffer> fec_recovery_;
  std::vector<Frame> fec_frames_scratch_;   // repair frames from the framer
  std::vector<Frame> fec_emit_scratch_;     // one-frame list per repair pkt
  std::vector<fec::RecoveryBuffer::Recovered> fec_recovered_scratch_;

  Stats stats_;
};

}  // namespace xlink::quic
