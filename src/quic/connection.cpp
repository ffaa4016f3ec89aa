#include "quic/connection.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace xlink::quic {
namespace {

/// Priority class ordering: frame priority dominates, then stream priority.
/// Higher class goes earlier in pkt_send_q.
std::pair<int, int> item_class(const SendItem& it) {
  return {it.frame_priority, it.stream_priority};
}

/// Deterministic CID bytes; in a real handshake these are exchanged, here
/// both endpoints derive the same values so routing agrees by construction.
/// `server_id` is embedded at kCidServerIdOffset for QUIC-LB routing.
ConnectionId derive_cid(Role issuer, std::uint32_t seq,
                        std::uint8_t server_id) {
  ConnectionId cid;
  cid.sequence = seq;
  const std::uint64_t tag =
      (issuer == Role::kClient ? 0xc11e57ULL : 0x5e47e2ULL);
  std::uint64_t x = tag * 0x9e3779b97f4a7c15ULL + seq;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  for (int i = 0; i < 8; ++i)
    cid.bytes[i] = static_cast<std::uint8_t>(x >> (8 * i));
  cid.bytes[kCidServerIdOffset] = server_id;
  return cid;
}

std::array<std::uint8_t, 8> derive_challenge(PathId id) {
  std::array<std::uint8_t, 8> d{};
  std::uint64_t x = 0xabcd0000ULL + id;
  x *= 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(x >> (8 * i));
  return d;
}

constexpr int kMaxAckRanges = 32;
constexpr int kAckElicitingThreshold = 2;

/// Path health (PathState::Health): consecutive PTOs before a path is
/// marked kDegraded.
constexpr std::uint32_t kDegradedAfterPtos = 1;
/// Consecutive-PTO budget: at this count the path fails over to kProbing --
/// if (and only if) another schedulable path survives.
constexpr std::uint32_t kFailoverPtoBudget = 3;
/// Dead-path probe backoff bounds (doubles per probe, capped).
constexpr sim::Duration kProbeIntervalMin = sim::millis(200);
constexpr sim::Duration kProbeIntervalMax = sim::seconds(3);

/// The control frames a lost packet must carry again: not acks or padding,
/// which regenerate, nor stream data, which a SentRecord's items represent.
bool is_retransmittable_control(const Frame& f) {
  return std::holds_alternative<CryptoFrame>(f) ||
         std::holds_alternative<NewConnectionIdFrame>(f) ||
         std::holds_alternative<PathChallengeFrame>(f) ||
         std::holds_alternative<PathResponseFrame>(f) ||
         std::holds_alternative<PathStatusFrame>(f) ||
         std::holds_alternative<MaxDataFrame>(f) ||
         std::holds_alternative<MaxStreamDataFrame>(f) ||
         std::holds_alternative<HandshakeDoneFrame>(f);
}

}  // namespace

std::string ConnectionId::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

Connection::Connection(sim::EventLoop& loop, Config config)
    : loop_(loop),
      config_(std::move(config)),
      aead_(config_.aead_key) {
  // CID sequence 0 for both directions exists from the start (handshake
  // CIDs); the peer's params arrive later but path 0's CIDs are implicit.
  local_cids_[0] = derive_cid(config_.role, 0, config_.cid_server_id);
  peer_cids_[0] = derive_cid(
      config_.role == Role::kClient ? Role::kServer : Role::kClient, 0,
      config_.peer_cid_server_id);
  next_local_cid_seq_ = 1;
  local_max_data_ = config_.params.initial_max_data;
  // Until the peer's params arrive, assume symmetric defaults (the true
  // values are applied in handle_crypto).
  peer_max_data_ = config_.params.initial_max_data;
  // FEC: each endpoint builds only the half it uses. The protecting sender
  // frames repair symbols; the receiver stashes datagrams to recover from.
  if (config_.fec.enabled && config_.fec.protect) {
    fec_framer_ = std::make_unique<fec::FecFramer>(config_.fec);
  } else if (config_.fec.enabled) {
    fec_recovery_ = std::make_unique<fec::RecoveryBuffer>(config_.fec);
    fec_recovery_->set_trace(config_.trace, trace_origin());
    fec_recovered_scratch_.reserve(fec::kMaxRepairs);
  }
}

Connection::~Connection() {
  if (timer_id_) loop_.cancel(timer_id_);
}

// --------------------------------------------------------------- lifecycle

void Connection::connect() {
  assert(config_.role == Role::kClient);
  if (handshake_sent_) return;
  create_path(0, PathState::State::kActive);
  send_handshake_initial();
}

void Connection::send_handshake_initial() {
  handshake_sent_ = true;
  CryptoFrame crypto;
  crypto.data = encode_transport_params(config_.params);
  queue_control(0, Frame{std::move(crypto)});
  pump_send();
}

void Connection::close(std::uint64_t error_code, const std::string& reason) {
  if (closed_) return;
  close_state_ = CloseState::kClosing;
  closed_ = true;
  close_info_.closed = true;
  close_info_.peer_initiated = false;
  close_info_.error_code = error_code;
  close_info_.reason = reason;
  close_recv_since_send_ = 0;
  close_resend_threshold_ = 1;
  if (!paths_.empty() && send_fn_) send_close_frame(fastest_active_path());
  if (timer_id_) {
    loop_.cancel(timer_id_);
    timer_id_ = 0;
  }
}

void Connection::send_close_frame(PathId path) {
  send_control_packet(
      path,
      Frame{ConnectionCloseFrame{close_info_.error_code, close_info_.reason}},
      /*count_inflight=*/false);
}

void Connection::close_with_error(TransportError code, ViolationKind kind,
                                  std::uint64_t observed, PathId path) {
  if (closed_) return;
  ++guard_.violations;
  XLINK_TRACE(config_.trace,
              telemetry::Event::guard_violation(
                  loop_.now(), trace_origin(), static_cast<std::uint8_t>(path),
                  static_cast<std::uint64_t>(code),
                  static_cast<std::uint64_t>(kind), observed));
  close(static_cast<std::uint64_t>(code),
        std::string("guard: ") + violation_kind_name(kind));
}

bool Connection::frame_legal_in_state(const Frame& frame) const {
  if (established_) return true;
  // Pre-handshake only the frames that complete it may appear. The check is
  // sequential per frame, so CRYPTO in the same packet legalizes what
  // follows it (e.g. the server's HANDSHAKE_DONE).
  return std::holds_alternative<CryptoFrame>(frame) ||
         std::holds_alternative<PingFrame>(frame) ||
         std::holds_alternative<PaddingFrame>(frame) ||
         std::holds_alternative<AckFrame>(frame) ||
         std::holds_alternative<AckMpFrame>(frame) ||
         std::holds_alternative<PathChallengeFrame>(frame) ||
         std::holds_alternative<PathResponseFrame>(frame) ||
         std::holds_alternative<ConnectionCloseFrame>(frame);
}

// ------------------------------------------------------------------- paths

void Connection::trace_path_state(const PathState& p) {
  XLINK_TRACE(config_.trace,
              telemetry::Event::path_status(
                  loop_.now(), trace_origin(), static_cast<std::uint8_t>(p.id),
                  static_cast<std::uint64_t>(p.state)));
}

PathState& Connection::create_path(PathId id, PathState::State state) {
  auto it = paths_.find(id);
  if (it != paths_.end()) return *it->second;
  auto p = std::make_unique<PathState>();
  p->id = id;
  p->state = state;
  // RFC 9002 §5.3: RTT samples may subtract at most the negotiated
  // max_ack_delay; the estimator owns the clamp.
  p->rtt.set_max_ack_delay(sim::millis(config_.params.max_ack_delay_ms));
  if (config_.cc == CcAlgorithm::kCoupledLia) {
    if (!lia_group_) lia_group_ = std::make_shared<LiaGroup>();
    p->cc = make_lia_controller(lia_group_);
  } else {
    p->cc = make_congestion_controller(config_.cc);
  }
  p->pacer.configure(config_.pacing);
  p->challenge_data = derive_challenge(id);
  auto [ins, _] = paths_.emplace(id, std::move(p));
  trace_path_state(*ins->second);
  return *ins->second;
}

std::optional<PathId> Connection::open_path() {
  if (!established_ || !multipath_enabled_ || closed_) return std::nullopt;
  // Next unused path id; requires an unused CID from the peer.
  PathId id = 0;
  for (const auto& [pid, _] : paths_) id = std::max(id, pid);
  ++id;
  if (!peer_cids_.contains(id) || !local_cids_.contains(id))
    return std::nullopt;
  PathState& p = create_path(id, PathState::State::kValidating);
  queue_control(id, Frame{PathChallengeFrame{p.challenge_data}});
  pump_send();
  return id;
}

void Connection::abandon_path(PathId id) {
  auto it = paths_.find(id);
  if (it == paths_.end()) return;
  PathState& p = *it->second;
  if (p.state == PathState::State::kAbandoned) return;
  p.state = PathState::State::kAbandoned;
  trace_path_state(p);
  // Tell the peer on a surviving path (the abandoned one no longer counts
  // as active), then requeue everything unacked on this path.
  queue_path_status(p, PathStatusKind::kAbandon);
  rescue_in_flight(p);
  pump_send();
}

void Connection::set_path_status(PathId id, std::uint64_t status) {
  auto it = paths_.find(id);
  if (it == paths_.end()) return;
  PathState& p = *it->second;
  if (status == PathStatusKind::kAbandon) {
    abandon_path(id);
    return;
  }
  p.state = status == PathStatusKind::kStandby ? PathState::State::kStandby
                                               : PathState::State::kActive;
  trace_path_state(p);
  queue_path_status(p, status);
  pump_send();
}

void Connection::migrate_to_path(PathId id) {
  if (!peer_cids_.contains(id)) return;
  // Connection migration restarts congestion control on the new path
  // (RFC 9000 §9.5); modeled by the fresh controller in create_path.
  std::vector<PathId> old_ids;
  for (const auto& [pid, p] : paths_)
    if (pid != id && p->state != PathState::State::kAbandoned)
      old_ids.push_back(pid);
  PathState& np = create_path(id, PathState::State::kActive);
  np.cc->reset();
  // The bandwidth model belongs to the old network path; a migrated
  // connection must rebuild it from scratch (the Fig. 13 restart cost).
  np.sampler.reset();
  np.pacer.reset();
  queue_control(id, Frame{PathChallengeFrame{np.challenge_data}});
  for (PathId old : old_ids) abandon_path(old);
  pump_send();
}

PathList Connection::path_ids() const {
  PathList out;
  for (const auto& [id, _] : paths_) out.push_back(id);
  return out;
}

PathList Connection::active_path_ids() const {
  PathList out;
  for (const auto& [id, p] : paths_)
    if (p->state == PathState::State::kActive) out.push_back(id);
  return out;
}

PathList Connection::schedulable_path_ids() const {
  PathList out;
  for (const auto& [id, p] : paths_)
    if (p->schedulable()) out.push_back(id);
  return out;
}

PathId Connection::fastest_active_path() const {
  // Prefer healthy active paths; a kProbing path only carries traffic when
  // nothing better exists (and then it is also the honest last resort).
  std::optional<PathId> best;
  std::optional<PathId> best_any;
  sim::Duration best_rtt = std::numeric_limits<sim::Duration>::max();
  sim::Duration best_any_rtt = std::numeric_limits<sim::Duration>::max();
  for (const auto& [id, p] : paths_) {
    if (p->state != PathState::State::kActive) continue;
    const sim::Duration rtt = p->rtt.smoothed();
    if (!best_any || rtt < best_any_rtt) {
      best_any = id;
      best_any_rtt = rtt;
    }
    if (p->health == PathState::Health::kProbing) continue;
    if (!best || rtt < best_rtt) {
      best = id;
      best_rtt = rtt;
    }
  }
  if (best) return *best;
  if (best_any) return *best_any;
  // Fall back to any non-abandoned path (e.g. still validating).
  for (const auto& [id, p] : paths_)
    if (p->state != PathState::State::kAbandoned) return id;
  return 0;
}

void Connection::rebind_path(PathId id) {
  auto it = paths_.find(id);
  if (it == paths_.end() || closed_) return;
  PathState& p = *it->second;
  if (p.state == PathState::State::kAbandoned) return;
  // The path's 4-tuple changed (NAT rebind): it must prove liveness again
  // before being treated as established, per RFC 9000 §9.3.
  p.state = PathState::State::kValidating;
  trace_path_state(p);
  queue_control(id, Frame{PathChallengeFrame{p.challenge_data}});
  pump_send();
}

void Connection::issue_connection_ids() {
  // NEW_CONNECTION_ID is base QUIC (migration needs it), not gated on the
  // multipath extension.
  if (cids_issued_) return;
  cids_issued_ = true;
  const auto limit = static_cast<std::uint32_t>(
      std::min(config_.params.active_connection_id_limit,
               peer_params_ ? peer_params_->active_connection_id_limit
                            : std::uint64_t{4}));
  for (std::uint32_t seq = next_local_cid_seq_; seq < limit; ++seq) {
    local_cids_[seq] = derive_cid(config_.role, seq, config_.cid_server_id);
    NewConnectionIdFrame f;
    f.sequence = seq;
    f.cid = local_cids_[seq].bytes;
    queue_control(0, Frame{f});
  }
  next_local_cid_seq_ = limit;
}

// ----------------------------------------------------------------- streams

StreamId Connection::open_stream() {
  const StreamId id = client_bidi_stream(next_stream_++);
  send_streams_.emplace(id, SendStream(id));
  return id;
}

SendStream* Connection::send_stream(StreamId id) {
  auto it = send_streams_.find(id);
  return it == send_streams_.end() ? nullptr : &it->second;
}

SendStream* Connection::open_send_stream(StreamId id) {
  auto it = send_streams_.find(id);
  if (it != send_streams_.end()) return &it->second;
  // A retired stream is closed for good: nothing more may be sent on it.
  if (is_retired(retired_send_, id)) return nullptr;
  return &send_streams_.emplace(id, SendStream(id)).first->second;
}

RecvStream* Connection::recv_stream(StreamId id) {
  auto it = recv_streams_.find(id);
  return it == recv_streams_.end() ? nullptr : &it->second;
}

const RecvStream* Connection::recv_stream(StreamId id) const {
  auto it = recv_streams_.find(id);
  return it == recv_streams_.end() ? nullptr : &it->second;
}

void Connection::stream_send(StreamId id, std::vector<std::uint8_t> data,
                             bool fin) {
  stream_send_prioritized(id, std::move(data), fin, /*frame_priority=*/0,
                          /*position=*/0, /*size=*/0);
}

void Connection::stream_send_prioritized(StreamId id,
                                         std::vector<std::uint8_t> data,
                                         bool fin, int frame_priority,
                                         std::uint64_t position,
                                         std::uint64_t size) {
  SendStream* opened = open_send_stream(id);
  if (!opened) return;
  SendStream& stream = *opened;
  const std::uint64_t len = data.size();
  const std::uint64_t offset = stream.write(std::move(data), fin);
  if (size > 0)
    stream.set_frame_priority(position, size, frame_priority);

  // Enqueue items split at video-frame priority boundaries so insertion
  // ordering can act on them independently.
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + len;
  while (cursor < end) {
    const int prio = stream.frame_priority_at(cursor);
    const std::uint64_t run_end = stream.frame_priority_run_end(cursor, end);
    SendItem item;
    item.stream_id = id;
    item.offset = cursor;
    item.length = run_end - cursor;
    item.fin = fin && run_end == end;
    item.stream_priority = stream.priority();
    item.frame_priority = prio;
    enqueue_item(item, InsertMode::kPriority);
    cursor = run_end;
  }
  if (len == 0 && fin) {
    SendItem item;
    item.stream_id = id;
    item.offset = offset;
    item.length = 0;
    item.fin = true;
    item.stream_priority = stream.priority();
    enqueue_item(item, InsertMode::kPriority);
  }
  pump_send();
}

void Connection::set_stream_priority(StreamId id, int priority) {
  if (SendStream* stream = open_send_stream(id)) stream->set_priority(priority);
}

// --------------------------------------------------------------- QoE frame

void Connection::send_qoe_signal(const QoeSignal& qoe) {
  queue_control(fastest_active_path(), Frame{QoeControlSignalsFrame{qoe}});
  pump_send();
}

// -------------------------------------------------------------- send queue

void Connection::enqueue_item(SendItem item, InsertMode mode) {
  switch (mode) {
    case InsertMode::kAppend:
      pkt_send_q_.push_back(item);
      return;
    case InsertMode::kPriority: {
      auto it = std::find_if(pkt_send_q_.begin(), pkt_send_q_.end(),
                             [&](const SendItem& other) {
                               return item_class(other) < item_class(item);
                             });
      pkt_send_q_.insert(it, item);
      return;
    }
    case InsertMode::kFrontOfClass: {
      auto it = std::find_if(pkt_send_q_.begin(), pkt_send_q_.end(),
                             [&](const SendItem& other) {
                               return item_class(other) <= item_class(item);
                             });
      pkt_send_q_.insert(it, item);
      return;
    }
  }
}

std::uint64_t Connection::reinject_record(SentRecord& record,
                                          InsertMode mode) {
  // Eligibility (including re-arming a record whose earlier duplicate did
  // not resolve the block) is the scheduler's call; here we only do it.
  record.reinjected = true;
  record.reinjected_at = loop_.now();
  std::uint64_t queued = 0;
  for (const SendItem& item : record.items) {
    auto* stream = send_stream(item.stream_id);
    if (!stream) continue;
    for (const auto& [b, e] :
         stream->unacked_within(item.offset, item.offset + item.length)) {
      SendItem dup = item;
      dup.offset = b;
      dup.length = e - b;
      dup.fin = item.fin && e == item.offset + item.length;
      dup.is_reinjection = true;
      dup.origin_path = record.path;
      enqueue_item(dup, mode);
      queued += dup.length;
    }
  }
  return queued;
}

std::uint64_t Connection::connection_send_window() const {
  return peer_max_data_ > data_sent_ ? peer_max_data_ - data_sent_ : 0;
}

// --------------------------------------------------------------- send loop

void Connection::pump_send() {
  if (in_pump_ || closed_ || !send_fn_) return;
  in_pump_ = true;
  // Subsampled: a full invariant walk every pump would dominate the hot
  // path; every 64th call keeps drift detection tight enough while staying
  // inside the <5% overhead budget (timer fires land here too -- on_timer
  // ends in pump_send).
  if ((++audit_pump_calls_ & 63) == 0 && auditor_.enabled())
    auditor_.tick(*this);

  send_pending_acks();

  // Flush control frames (handshake, path management, flow control). They
  // are small and vital, so they bypass the congestion window.
  for (auto& [path_id, queue] : pending_control_) {
    if (queue.empty()) continue;
    auto pit = paths_.find(path_id);
    if (pit == paths_.end() ||
        pit->second->state == PathState::State::kAbandoned) {
      queue.clear();
      continue;
    }
    std::vector<Frame> frames = std::move(send_frames_scratch_);
    frames.clear();
    std::size_t used = 0;
    bool suppressed = false;
    while (!queue.empty()) {
      const std::size_t sz = frame_wire_size(queue.front());
      if (used + sz > kMaxPacketPayload && !frames.empty()) {
        // A suppressed send (anti-amplification) re-queued the batch at the
        // head of this queue; stop flushing the path until budget returns.
        if (!build_and_send(path_id, frames, {}, /*ack_eliciting=*/true)) {
          suppressed = true;
          break;
        }
        frames.clear();
        used = 0;
      }
      frames.push_back(std::move(queue.front()));
      queue.pop_front();
      used += sz;
    }
    if (!suppressed && !frames.empty())
      build_and_send(path_id, frames, {}, /*ack_eliciting=*/true);
    frames.clear();
    send_frames_scratch_ = std::move(frames);
  }

  // Stream data, scheduler-driven.
  int guard = 0;
  while (guard++ < 200000) {
    if (pkt_send_q_.empty() && config_.scheduler)
      config_.scheduler->maybe_reinject(*this);
    if (pkt_send_q_.empty()) break;

    std::optional<PathId> path;
    if (config_.scheduler) {
      path = config_.scheduler->select_path(*this);
      if (path && auditor_.enabled())
        auditor_.check_scheduled_path(*this, *path);
    } else {
      // Single-path: the unique usable path, cwnd permitting.
      for (const auto& [id, p] : paths_) {
        if (p->usable() && p->cwnd_available() >= kDefaultMss / 2) {
          path = id;
          break;
        }
      }
    }
    if (!path) break;
    // Pacing gate: the selected path's token bucket is in debt. Sideline
    // just this path for the rest of the pump (other paths may still have
    // tokens); arm_timers schedules a wake at its next release.
    if (config_.pacing.enabled &&
        !paths_.at(*path)->pacer.can_send(loop_.now())) {
      paths_.at(*path)->pacer_deferred = true;
      continue;
    }
    if (!send_one_packet(*path)) break;
    if (config_.scheduler) config_.scheduler->maybe_reinject(*this);
  }

  // App-limited marker (draft-cheng / RFC 9002 §7.8): the loop stopped
  // with nothing left to send while cwnd headroom remains, so packets now
  // in flight were not cwnd-limited -- their acks must neither inflate
  // cwnd nor lower the bandwidth estimate.
  if (pkt_send_q_.empty() && established_) {
    for (auto& [id, p] : paths_) {
      if (!p->schedulable()) continue;
      // A pacer-deferred path is pacer-limited, not app-limited: its
      // cwnd_available() reads zero, so it is skipped here -- correct,
      // since its next flight WAS constrained by the controller.
      if (p->cwnd_available() >= kDefaultMss)
        p->sampler.on_app_limited(p->loss.bytes_in_flight());
    }
  }

  // The deferral is pump-scoped; clear before arm_timers so the pacer
  // release wake (gated on cwnd headroom) still gets considered.
  if (config_.pacing.enabled)
    for (auto& [id, p] : paths_) p->pacer_deferred = false;

  arm_timers();
  in_pump_ = false;
}

bool Connection::send_one_packet(PathId path_id, bool ignore_cwnd) {
  auto pit = paths_.find(path_id);
  if (pit == paths_.end()) return false;
  PathState& path = *pit->second;
  if (!path.usable()) return false;
  // A failed-over path carries only dead-path probes (PINGs from the probe
  // timer), never fresh stream data.
  if (path.health == PathState::Health::kProbing) return false;

  // PTO probes may exceed the congestion window (RFC 9002 §7.5): when the
  // window is full of packets a dead path will never acknowledge, the probe
  // is the only thing that can restart the ack clock.
  // With sender-side FEC on, data payloads are capped below the MTU so a
  // repair symbol (sealed wire + length prefix + REPAIR header) still fits
  // one packet payload.
  const std::size_t max_payload =
      fec_framer_ ? std::min<std::size_t>(kMaxPacketPayload, fec::kPayloadCap)
                  : kMaxPacketPayload;
  const std::size_t budget =
      ignore_cwnd ? max_payload
                  : std::min<std::size_t>(max_payload,
                                          path.cwnd_available());
  if (budget < 64) return false;

  // Reuse the scratch frame list (moved out so re-entrant sends fall back
  // to a fresh vector rather than aliasing).
  std::vector<Frame> frames = std::move(send_frames_scratch_);
  frames.clear();
  std::vector<SendItem> taken = std::move(send_items_scratch_);
  taken.clear();
  std::size_t used = 0;

  while (!pkt_send_q_.empty()) {
    SendItem& head = pkt_send_q_.front();
    // A re-injection on its own origin path is a pointless duplicate; drop
    // it (the original stays tracked by loss detection).
    if (head.is_reinjection && head.origin_path &&
        *head.origin_path == path_id) {
      pkt_send_q_.pop_front();
      continue;
    }
    auto* stream = send_stream(head.stream_id);
    if (!stream) {
      pkt_send_q_.pop_front();
      continue;
    }
    // Skip ranges that were fully acked since queueing (duplicate rescue).
    if (head.length > 0 &&
        stream->range_acked(head.offset, head.offset + head.length)) {
      pkt_send_q_.pop_front();
      continue;
    }
    const std::size_t overhead =
        stream_frame_overhead(head.stream_id, head.offset, head.length);
    if (used + overhead + 1 > budget) break;

    std::uint64_t can_take = std::min<std::uint64_t>(
        head.length, budget - used - overhead);
    // Flow control applies to first transmissions only (duplicates carry
    // already-counted offsets).
    if (!head.is_retransmission && !head.is_reinjection) {
      can_take = std::min(can_take, connection_send_window());
      const std::uint64_t stream_limit = std::max(
          stream->peer_max_data(),
          peer_params_ ? peer_params_->initial_max_stream_data
                       : config_.params.initial_max_stream_data);
      can_take = std::min(can_take, stream_limit > head.offset
                                        ? stream_limit - head.offset
                                        : 0);
    }
    if (can_take == 0 && !(head.length == 0 && head.fin)) break;

    SendItem piece = head;
    piece.length = can_take;
    if (can_take < head.length) {
      piece.fin = false;
      head.offset += can_take;
      head.length -= can_take;
    } else {
      pkt_send_q_.pop_front();
    }

    StreamFrame frame;
    frame.stream_id = piece.stream_id;
    frame.offset = piece.offset;
    frame.fin = piece.fin;
    // Borrow the payload straight from the stream buffer: the frame list
    // lives only until seal_packet_buffer copies it onto the wire below.
    frame.data =
        FrameData::borrowed(stream->view_range(piece.offset, piece.length));
    used += overhead + frame.data.size();
    frames.emplace_back(std::move(frame));

    if (piece.is_reinjection) {
      stats_.reinjected_bytes += piece.length;
    } else if (piece.is_retransmission) {
      stats_.retransmitted_bytes += piece.length;
    } else {
      stats_.stream_bytes_sent += piece.length;
      data_sent_ += piece.length;
    }
    taken.push_back(std::move(piece));

    if (used + 32 >= budget) break;  // packet effectively full
  }

  const bool sent =
      !taken.empty() &&
      build_and_send(path_id, frames, taken, /*ack_eliciting=*/true);
  frames.clear();
  send_frames_scratch_ = std::move(frames);
  taken.clear();
  send_items_scratch_ = std::move(taken);
  return sent;
}

bool Connection::send_control_packet(PathId path_id, Frame frame,
                                     bool count_inflight) {
  std::vector<Frame> frames = std::move(send_frames_scratch_);
  frames.clear();
  frames.push_back(std::move(frame));
  const bool sent = build_and_send(path_id, frames, {}, count_inflight);
  frames.clear();
  send_frames_scratch_ = std::move(frames);
  return sent;
}

bool Connection::build_and_send(PathId path_id, std::vector<Frame>& frames,
                                std::span<SendItem> items,
                                bool ack_eliciting) {
  auto pit = paths_.find(path_id);
  if (pit == paths_.end() || !send_fn_) return false;
  PathState& path = *pit->second;

  // Opportunistically piggyback this path's pending ack.
  bool prepended_ack = false;
  if (path.ack_pending && !path.recv_ranges.empty()) {
    frames.insert(frames.begin(), Frame{take_ack(path)});
    prepended_ack = true;
  }

  PacketHeader header;
  header.type = established_ ? PacketType::kOneRtt : PacketType::kInitial;
  const auto cid_it = peer_cids_.find(path_id);
  if (cid_it != peer_cids_.end()) header.dcid = cid_it->second.bytes;
  const auto scid_it = local_cids_.find(path_id);
  if (scid_it != local_cids_.end()) header.scid = scid_it->second.bytes;
  header.cid_sequence = path_id;
  header.packet_number = path.next_pn;

  net::PacketBuffer wire = seal_packet_buffer(aead_, header, frames);

  // RFC 9000 §8.1 anti-amplification: until the peer's address on this
  // path is validated, a server may send at most kAmplificationFactor
  // times the bytes it received there -- otherwise a spoofed-source probe
  // turns this endpoint into a traffic amplifier. The packet number is not
  // consumed for a suppressed send.
  if (config_.role == Role::kServer &&
      path.state == PathState::State::kValidating &&
      path.bytes_sent + wire.size() >
          kAmplificationFactor * path.bytes_received) {
    ++guard_.amplification_blocked;
    // Suppression must be lossless: nothing here has a SentRecord yet, so
    // anything silently dropped would never be retransmitted. Stream pieces
    // go back to the head of the send queue (first transmissions already
    // charged flow control, so they resend as retransmissions) and
    // retransmittable control frames back to the head of this path's
    // control queue; acks, probes and repair symbols regenerate on their
    // own and are simply dropped.
    for (auto it = items.rbegin(); it != items.rend(); ++it) {
      if (!it->is_reinjection) it->is_retransmission = true;
      pkt_send_q_.push_front(std::move(*it));
    }
    auto& ctrl = pending_control_[path_id];
    for (std::size_t i = frames.size(); i-- > (prepended_ack ? 1u : 0u);) {
      if (is_retransmittable_control(frames[i]))
        ctrl.push_front(std::move(frames[i]));
    }
    if (prepended_ack) {
      path.ack_pending = true;
      --stats_.acks_sent;
    }
    return false;
  }
  ++path.next_pn;
  const bool has_ack_eliciting_frame =
      std::any_of(frames.begin(), frames.end(),
                  [](const Frame& f) { return is_ack_eliciting(f); });
  const bool eliciting = ack_eliciting && has_ack_eliciting_frame;
  const bool is_reinjection_pkt =
      !items.empty() &&
      std::all_of(items.begin(), items.end(),
                  [](const SendItem& i) { return i.is_reinjection; });

  if (eliciting || !items.empty()) {
    // The delivery-rate stamp sees bytes_in_flight from before this packet:
    // the sampler re-anchors its clocks when it is still zero.
    const std::size_t in_flight_before = path.loss.bytes_in_flight();
    SentRecord& rec = path.loss.on_packet_sent(
        header.packet_number, loop_.now(), wire.size(), eliciting);
    rec.ledger_only = false;
    rec.path = path_id;
    rec.is_reinjection = is_reinjection_pkt;
    rec.items.assign(items.begin(), items.end());
    for (const Frame& f : frames)
      if (is_retransmittable_control(f)) rec.control.push_back(f);
    if (eliciting) {
      path.sampler.on_packet_sent(rec.rate_stamp, rec.sent_time,
                                  in_flight_before);
      path.last_ack_eliciting_sent = rec.sent_time;
      path.cc->on_packet_sent(rec.bytes, rec.sent_time);
    }
  }

  // Pacing: every wire departure debits the token bucket (control and acks
  // included, so their bytes count toward the release rate); only the
  // scheduler-driven data loop in pump_send is gated on the balance.
  path.pacer.on_sent(loop_.now(), wire.size());

  ++path.packets_sent;
  path.bytes_sent += wire.size();
  ++stats_.packets_sent;
  stats_.bytes_sent += wire.size();
  XLINK_TRACE(config_.trace,
              telemetry::Event::packet_sent(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(path_id), header.packet_number,
                  wire.size(), eliciting, is_reinjection_pkt));

  // Sender-side FEC: every sealed packet except the repair carriers
  // themselves is a source symbol (repairs sit at window boundaries, so
  // the protected packet-number range stays contiguous).
  const bool fec_protect =
      fec_framer_ &&
      !std::any_of(frames.begin(), frames.end(), [](const Frame& f) {
        return std::holds_alternative<RepairFrame>(f);
      });
  if (fec_protect) {
    fec_frames_scratch_.clear();
    fec_framer_->on_packet_sent(path_id, header.packet_number, wire.cspan(),
                                loop_.now(), path_loss_estimate(path),
                                fec_frames_scratch_);
  }
  send_fn_(path_id, std::move(wire));
  if (fec_protect && !fec_frames_scratch_.empty()) {
    ++stats_.fec_windows_protected;
    for (Frame& f : fec_frames_scratch_) {
      const auto& rf = std::get<RepairFrame>(f);
      ++stats_.fec_repair_packets_sent;
      stats_.fec_repair_bytes_sent += rf.payload.size();
      XLINK_TRACE(config_.trace,
                  telemetry::Event::fec_repair_sent(
                      loop_.now(), trace_origin(),
                      static_cast<std::uint8_t>(path_id), rf.window_id,
                      rf.payload.size(), rf.first_pn,
                      static_cast<std::uint8_t>(rf.k),
                      static_cast<std::uint8_t>(rf.repair_count),
                      static_cast<std::uint8_t>(rf.symbol_index)));
      // Each repair symbol travels in its own packet (it nearly fills
      // one); recursion is safe because repair carriers are never fed
      // back into the framer.
      fec_emit_scratch_.clear();
      fec_emit_scratch_.push_back(std::move(f));
      build_and_send(path_id, fec_emit_scratch_, {}, /*ack_eliciting=*/true);
      fec_emit_scratch_.clear();
    }
    fec_frames_scratch_.clear();
  }
  return true;
}

void Connection::send_pending_acks() {
  for (auto& [id, p] : paths_) {
    if (!p->ack_pending || p->recv_ranges.empty()) continue;
    if (p->state == PathState::State::kAbandoned) {
      p->ack_pending = false;
      continue;
    }
    const bool due = p->ack_eliciting_unacked >= kAckElicitingThreshold ||
                     p->ack_deadline <= loop_.now();
    if (!due) continue;
    AckMpFrame ack = take_ack(*p);
    const auto carrier = ack_carrier_path(id);
    if (!carrier) continue;
    send_control_packet(*carrier, Frame{std::move(ack)},
                        /*count_inflight=*/false);
  }
}

AckMpFrame Connection::take_ack(PathState& p) {
  AckMpFrame ack;
  ack.path_id = p.id;
  ack.info.ranges = p.recv_ranges;
  ack.info.ack_delay_us = loop_.now() - p.largest_recv_time;
  if (config_.role == Role::kClient && qoe_provider_) ack.qoe = qoe_provider_();
  p.ack_pending = false;
  p.ack_eliciting_unacked = 0;
  ++stats_.acks_sent;
  return ack;
}

std::optional<PathId> Connection::ack_carrier_path(PathId acked_path) const {
  const auto it = paths_.find(acked_path);
  const bool original_usable =
      it != paths_.end() && it->second->state != PathState::State::kAbandoned;
  if (config_.ack_policy == AckPathPolicy::kOriginalPath && original_usable)
    return acked_path;
  // Fastest active path; fall back to the original.
  for (const auto& [id, p] : paths_) {
    (void)id;
    if (p->state == PathState::State::kActive) return fastest_active_path();
  }
  return original_usable ? std::optional<PathId>(acked_path) : std::nullopt;
}

// ------------------------------------------------------------ receive side

void Connection::on_datagram(PathId arrival_path, net::Datagram dgram) {
  if (close_state_ == CloseState::kDraining) return;
  if (close_state_ == CloseState::kClosing) {
    // RFC 9000 §10.2.1: keep answering a peer that missed our close, but
    // rate-limited -- one CONNECTION_CLOSE per exponentially growing count
    // of incoming packets, so a flood cannot make us flood back.
    if (++close_recv_since_send_ >= close_resend_threshold_ && send_fn_ &&
        !paths_.empty()) {
      close_recv_since_send_ = 0;
      close_resend_threshold_ *= 2;
      ++guard_.close_resends;
      send_close_frame(fastest_active_path());
    }
    return;
  }
  stats_.bytes_received += dgram.size();
  const auto pkt = parse_packet_view(dgram.span());
  if (!pkt) return;
  const PathId path_id = pkt->header.cid_sequence;
  (void)arrival_path;  // header's CID sequence is authoritative

  auto pit = paths_.find(path_id);
  if (pit == paths_.end()) {
    // New path initiated by the peer, or the server's first sight of the
    // connection (path 0 handshake).
    const bool handshake = pkt->header.type == PacketType::kInitial &&
                           path_id == 0 && config_.role == Role::kServer;
    // A valid unused CID admits a new path: simultaneous use under the
    // multipath extension, or plain QUIC connection migration.
    const bool new_subpath = established_ && local_cids_.contains(path_id);
    if (!handshake && !new_subpath) return;
    PathState& np = create_path(path_id, handshake
                                             ? PathState::State::kActive
                                             : PathState::State::kValidating);
    // Validate the initiator's address ourselves: the path stays
    // kValidating (amplification-capped on the server) until our challenge
    // comes back.
    if (new_subpath)
      queue_control(path_id, Frame{PathChallengeFrame{np.challenge_data}});
    pit = paths_.find(path_id);
  }
  PathState& path = *pit->second;

  // FEC: copy the sealed bytes aside first (open_packet_in_place destroys
  // the ciphertext, even when it fails). Only a datagram that
  // authenticates becomes a present source symbol for later repair
  // windows; one that fails stays an erasure.
  if (fec_recovery_) fec_recovery_->stage(dgram.cspan());

  // Decrypt in place inside the receive buffer and parse the frames into
  // the reusable scratch list; stream/crypto payloads borrow from `dgram`,
  // which stays alive for the rest of this call.
  const auto payload = open_packet_in_place(aead_, *pkt);
  if (payload && fec_recovery_)
    fec_recovery_->commit(path_id, pkt->header.packet_number, loop_.now());
  std::vector<Frame> frames = std::move(recv_frames_scratch_);
  frames.clear();
  const bool parsed_ok = payload && parse_frames_into(*payload, frames);
  if (!parsed_ok) {
    ++stats_.auth_failures;
    recv_frames_scratch_ = std::move(frames);
    return;
  }

  ++path.packets_received;
  path.bytes_received += dgram.size();
  ++stats_.packets_received;
  XLINK_TRACE(config_.trace,
              telemetry::Event::packet_received(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(path_id),
                  pkt->header.packet_number, dgram.size()));

  const bool eliciting =
      std::any_of(frames.begin(), frames.end(),
                  [](const Frame& f) { return is_ack_eliciting(f); });
  const bool duplicate = already_received(path, pkt->header.packet_number);
  if (duplicate) {
    ++guard_.replayed_packets;
    if (guard_.replayed_packets > config_.budgets.max_replayed_packets) {
      close_with_error(TransportError::kProtocolViolation,
                       ViolationKind::kReplayFlood, guard_.replayed_packets,
                       path_id);
    }
  }
  note_received(path, pkt->header.packet_number, eliciting);
  if (!duplicate && !closed_)
    handle_frames(path_id, frames);

  frames.clear();
  recv_frames_scratch_ = std::move(frames);
  pump_send();
}

bool Connection::already_received(const PathState& p, PacketNumber pn) const {
  if (pn < p.recv_floor) return true;
  for (const AckRange& r : p.recv_ranges)
    if (pn >= r.first && pn <= r.last) return true;
  return false;
}

void Connection::note_received(PathState& p, PacketNumber pn,
                               bool ack_eliciting) {
  // Merge pn into the descending-sorted range list (a pn below the floor
  // is already accounted for).
  bool merged = pn < p.recv_floor;
  for (std::size_t i = 0; i < p.recv_ranges.size() && !merged; ++i) {
    AckRange& r = p.recv_ranges[i];
    if (pn >= r.first && pn <= r.last) {
      merged = true;  // duplicate
    } else if (pn == r.last + 1) {
      r.last = pn;
      if (i > 0 && p.recv_ranges[i - 1].first == r.last + 1) {
        p.recv_ranges[i - 1].first = r.first;
        p.recv_ranges.erase(p.recv_ranges.begin() + static_cast<long>(i));
      }
      merged = true;
    } else if (pn + 1 == r.first) {
      r.first = pn;
      if (i + 1 < p.recv_ranges.size() &&
          p.recv_ranges[i + 1].last + 1 == r.first) {
        r.first = p.recv_ranges[i + 1].first;
        p.recv_ranges.erase(p.recv_ranges.begin() + static_cast<long>(i + 1));
      }
      merged = true;
    }
  }
  if (!merged) {
    auto it = std::find_if(p.recv_ranges.begin(), p.recv_ranges.end(),
                           [pn](const AckRange& r) { return r.last < pn; });
    p.recv_ranges.insert(it, AckRange{pn, pn});
  }
  if (p.recv_ranges.size() > kMaxAckRanges) {
    p.recv_floor = p.recv_ranges.back().last + 1;
    p.recv_ranges.pop_back();
  }

  if (pn == p.recv_ranges.front().last) p.largest_recv_time = loop_.now();
  if (ack_eliciting) {
    const sim::Time deadline =
        loop_.now() + sim::millis(config_.params.max_ack_delay_ms);
    if (!p.ack_pending || deadline < p.ack_deadline) p.ack_deadline = deadline;
    p.ack_pending = true;
    ++p.ack_eliciting_unacked;
  }
}

void Connection::handle_frames(PathId path_id,
                               const std::vector<Frame>& frames) {
  for (const Frame& frame : frames) {
    if (closed_) return;
    if (!frame_legal_in_state(frame)) {
      close_with_error(TransportError::kProtocolViolation,
                       ViolationKind::kFrameIllegalInState,
                       static_cast<std::uint64_t>(frame.index()), path_id);
      return;
    }
    if (const auto* f = std::get_if<AckFrame>(&frame)) {
      handle_ack_info(path_id, f->info);
    } else if (const auto* f = std::get_if<AckMpFrame>(&frame)) {
      handle_ack_info(f->path_id, f->info);
      if (f->qoe) on_peer_qoe(*f->qoe);
    } else if (const auto* f = std::get_if<QoeControlSignalsFrame>(&frame)) {
      on_peer_qoe(f->qoe);
    } else if (const auto* f = std::get_if<RepairFrame>(&frame)) {
      handle_repair_frame(path_id, *f);
    } else if (const auto* f = std::get_if<StreamFrame>(&frame)) {
      handle_stream_frame(*f);
    } else if (const auto* f = std::get_if<CryptoFrame>(&frame)) {
      handle_crypto(*f);
    } else if (const auto* f = std::get_if<PathChallengeFrame>(&frame)) {
      // Answering proves nothing about the sender: only OUR challenge being
      // echoed back validates the peer's address (RFC 9000 §8.2.1), so a
      // spoofed-source probe cannot promote the path out of kValidating --
      // where the anti-amplification cap applies.
      queue_control(path_id, Frame{PathResponseFrame{f->data}});
    } else if (const auto* f = std::get_if<PathResponseFrame>(&frame)) {
      auto& p = *paths_.at(path_id);
      if (p.state == PathState::State::kValidating &&
          f->data == p.challenge_data) {
        p.state = PathState::State::kActive;
        trace_path_state(p);
        if (on_path_validated) {
          const PathId validated = path_id;
          loop_.schedule_in(0, [this, validated] {
            if (on_path_validated) on_path_validated(validated);
          });
        }
      }
    } else if (const auto* f = std::get_if<PathStatusFrame>(&frame)) {
      auto it = paths_.find(f->path_id);
      if (it != paths_.end() && f->status_seq > it->second->status_seq_in) {
        it->second->status_seq_in = f->status_seq;
        if (f->status == PathStatusKind::kAbandon) {
          // Peer abandoned: stop using it, rescue in-flight data.
          PathState& p = *it->second;
          if (p.state != PathState::State::kAbandoned) {
            p.state = PathState::State::kAbandoned;
            trace_path_state(p);
            rescue_in_flight(p);
          }
        } else if (f->status == PathStatusKind::kStandby) {
          it->second->state = PathState::State::kStandby;
          trace_path_state(*it->second);
        } else if (it->second->state == PathState::State::kStandby) {
          it->second->state = PathState::State::kActive;
          trace_path_state(*it->second);
        }
      }
    } else if (const auto* f = std::get_if<NewConnectionIdFrame>(&frame)) {
      // An honest peer never issues beyond our advertised CID limit
      // (RFC 9000 §5.1.1); unbounded acceptance is a memory hole.
      if (f->sequence >= config_.params.active_connection_id_limit) {
        close_with_error(TransportError::kConnectionIdLimitError,
                         ViolationKind::kCidLimit, f->sequence, path_id);
        return;
      }
      ConnectionId cid;
      cid.bytes = f->cid;
      cid.sequence = static_cast<std::uint32_t>(f->sequence);
      peer_cids_[cid.sequence] = cid;
    } else if (std::get_if<HandshakeDoneFrame>(&frame)) {
      // Only a server sends HANDSHAKE_DONE (RFC 9000 §19.20).
      if (config_.role == Role::kServer) {
        close_with_error(TransportError::kProtocolViolation,
                         ViolationKind::kFrameIllegalInState,
                         static_cast<std::uint64_t>(frame.index()), path_id);
        return;
      }
    } else if (const auto* f = std::get_if<MaxDataFrame>(&frame)) {
      peer_max_data_ = std::max(peer_max_data_, f->maximum);
    } else if (const auto* f = std::get_if<MaxStreamDataFrame>(&frame)) {
      // A limit for a retired (or never opened) stream has nothing to lift.
      if (SendStream* stream = send_stream(f->stream_id))
        stream->raise_peer_max_data(f->maximum);
    } else if (const auto* f = std::get_if<ConnectionCloseFrame>(&frame)) {
      // Peer-initiated termination: enter draining (RFC 9000 §10.2.2) --
      // nothing is ever sent again, incoming datagrams are dropped.
      close_state_ = CloseState::kDraining;
      closed_ = true;
      close_info_.closed = true;
      close_info_.peer_initiated = true;
      close_info_.error_code = f->error_code;
      close_info_.reason = f->reason;
      if (timer_id_) {
        loop_.cancel(timer_id_);
        timer_id_ = 0;
      }
    }
    // PING, PADDING, HANDSHAKE_DONE, RESET_STREAM, STOP_SENDING: no action.
  }
}

void Connection::on_peer_qoe(const QoeSignal& qoe) {
  latest_peer_qoe_ = qoe;
  XLINK_TRACE(config_.trace,
              telemetry::Event::qoe_signal(loop_.now(), trace_origin(),
                                           qoe.cached_bytes,
                                           qoe.cached_frames, qoe.bps));
  if (on_qoe_feedback) on_qoe_feedback(qoe);
}

void Connection::handle_crypto(const CryptoFrame& f) {
  auto params = parse_transport_params(f.data);
  if (!params || peer_params_) return;  // duplicate handshake data
  peer_params_ = *params;
  peer_max_data_ = params->initial_max_data;
  multipath_enabled_ =
      config_.params.enable_multipath && params->enable_multipath;

  if (config_.role == Role::kServer && !handshake_sent_) {
    handshake_sent_ = true;
    CryptoFrame reply;
    reply.data = encode_transport_params(config_.params);
    queue_control(0, Frame{std::move(reply)});
    queue_control(0, Frame{HandshakeDoneFrame{}});
  }
  established_ = true;
  issue_connection_ids();
  if (on_established)
    loop_.schedule_in(0, [this] {
      if (on_established) on_established();
    });
}

void Connection::handle_stream_frame(const StreamFrame& f) {
  const std::uint64_t new_high = f.offset + f.data.size();
  // Only client-initiated bidirectional ids exist in this transport
  // (open_stream hands out 4n); any other shape is fabricated.
  if ((f.stream_id & 0x3) != 0) {
    close_with_error(TransportError::kStreamStateError,
                     ViolationKind::kStreamIdInvalid, f.stream_id, 0);
    return;
  }
  // Closed-stream rule: a retired stream was read through its FIN, so a
  // late duplicate (or re-injected copy) carries nothing new. The packet
  // is still acknowledged; the frame is dropped.
  if (is_retired(retired_recv_, f.stream_id)) return;
  auto it = recv_streams_.find(f.stream_id);
  if (it == recv_streams_.end()) {
    // RFC 9000 §3.2: a stream id implicitly opens every lower id, so the
    // budget counts each id up to the highest seen that has not retired --
    // the open streams plus the holes between them. Streams that retire in
    // order leave no holes; a peer that finishes ids 0, 8, 16, ... leaves
    // one per stream and reaches the budget, which also bounds the
    // intervals of retired_recv_.
    std::uint64_t seen = f.stream_id / 4 + 1;
    if (!recv_streams_.empty())
      seen = std::max(seen, recv_streams_.rbegin()->first / 4 + 1);
    if (!retired_recv_.empty())
      seen = std::max(seen, retired_recv_.intervals().rbegin()->second);
    const std::uint64_t outstanding = seen - retired_recv_.covered_bytes();
    if (outstanding > config_.budgets.max_open_recv_streams) {
      close_with_error(TransportError::kStreamLimitError,
                       ViolationKind::kStreamLimit, outstanding, 0);
      return;
    }
    it = recv_streams_.emplace(f.stream_id, RecvStream(f.stream_id)).first;
    it->second.set_max_gaps(config_.budgets.max_recv_gaps_per_stream);
    it->second.set_max_data(config_.params.initial_max_stream_data);
    guard_.peak_open_recv_streams = std::max<std::uint64_t>(
        guard_.peak_open_recv_streams, recv_streams_.size());
  }
  RecvStream& stream = it->second;

  const std::uint64_t before = stream.contiguous_received();
  const std::uint64_t prev_high =
      std::max(stream.read_offset(), stream.received_high());
  // Final-size integrity (RFC 9000 §4.5): the FIN offset may not move and
  // no data may lie beyond it.
  if (stream.final_size()) {
    const std::uint64_t fs = *stream.final_size();
    if (new_high > fs || (f.fin && new_high != fs)) {
      close_with_error(TransportError::kFinalSizeError,
                       ViolationKind::kFinalSizeChanged, new_high, 0);
      return;
    }
  }
  // Flow control BEFORE the copy: an offset bomb must not be able to
  // force a giant reassembly-buffer provisioning.
  if (new_high > stream.max_data()) {
    close_with_error(TransportError::kFlowControlError,
                     ViolationKind::kStreamFlowControl, new_high, 0);
    return;
  }
  if (new_high > prev_high &&
      data_received_ + (new_high - prev_high) > local_max_data_) {
    close_with_error(TransportError::kFlowControlError,
                     ViolationKind::kConnectionFlowControl,
                     data_received_ + (new_high - prev_high), 0);
    return;
  }

  const std::uint64_t collapses_before = stream.gap_collapses();
  const std::uint64_t phantom_before = stream.phantom_bytes();
  stream.on_data(f.offset, f.data, f.fin);
  guard_.gap_collapses += stream.gap_collapses() - collapses_before;
  guard_.phantom_bytes += stream.phantom_bytes() - phantom_before;
  guard_.peak_stream_gaps = std::max<std::uint64_t>(
      guard_.peak_stream_gaps, stream.tracked_intervals());
  if (new_high > prev_high) data_received_ += new_high - prev_high;

  const bool finished = stream.fully_received();
  if (stream.contiguous_received() > before && on_stream_readable) {
    const StreamId id = f.stream_id;
    loop_.schedule_in(0, [this, id] {
      if (on_stream_readable) on_stream_readable(id);
    });
  }
  if (finished && on_stream_data_finished && !stream.finish_announced()) {
    stream.mark_finish_announced();
    const StreamId id = f.stream_id;
    loop_.schedule_in(0, [this, id] {
      if (on_stream_data_finished) on_stream_data_finished(id);
    });
  }
}

double Connection::path_loss_estimate(const PathState& p) const {
  if (p.packets_sent == 0) return 0.0;
  return static_cast<double>(p.packets_lost) /
         static_cast<double>(p.packets_sent);
}

void Connection::handle_repair_frame(PathId path_id, const RepairFrame& f) {
  ++guard_.repair_frames;
  // A REPAIR bomb: an honest symbol is bounded by the sealed MTU plus its
  // 2-byte length prefix, and each symbol travels in its own packet.
  if (f.payload.size() > fec::kMaxSymbolBytes) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kRepairOversized, f.payload.size(),
                     path_id);
    return;
  }
  const std::uint64_t allowance =
      config_.budgets.repair_flood_base +
      config_.budgets.repair_flood_per_packet_received *
          stats_.packets_received;
  if (guard_.repair_frames > allowance) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kRepairFlood, guard_.repair_frames,
                     path_id);
    return;
  }
  if (!fec_recovery_) return;
  fec_recovered_scratch_.clear();
  const auto outcome =
      fec_recovery_->on_repair(path_id, f, loop_.now(), fec_recovered_scratch_);
  stats_.fec_wasted_symbols += outcome.wasted;
  stats_.fec_erased_seen += outcome.erased_newly_seen;
  if (outcome.wasted > 0) {
    XLINK_TRACE(config_.trace,
                telemetry::Event::fec_wasted(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(path_id), f.window_id,
                    outcome.wasted));
  }
  if (fec_recovered_scratch_.empty()) return;
  // Move the list out before delivery: a recovered datagram re-enters
  // on_datagram, which may reach this method again for a later window.
  std::vector<fec::RecoveryBuffer::Recovered> recovered =
      std::move(fec_recovered_scratch_);
  for (auto& rec : recovered) {
    on_datagram(path_id, std::move(rec.wire));
    // A rebuilt datagram that failed to authenticate leaves the stash and
    // is no recovery: only the ones that did are counted and traced.
    if (fec_recovery_->drop_unconfirmed(path_id, rec.pn)) continue;
    ++stats_.fec_recovered_packets;
    XLINK_TRACE(config_.trace,
                telemetry::Event::fec_recovered(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(path_id), rec.pn, rec.window_id,
                    rec.latency_us));
  }
  recovered.clear();
  fec_recovered_scratch_ = std::move(recovered);
}

void Connection::handle_ack_info(PathId acked_path, const AckInfo& info) {
  auto pit = paths_.find(acked_path);
  if (pit == paths_.end()) return;
  PathState& p = *pit->second;

  ++guard_.ack_frames;
  // Lying ACK: acknowledging a packet number this path never sent.
  if (!info.ranges.empty() && info.largest_acked() >= p.next_pn) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kLyingAck, info.largest_acked(),
                     acked_path);
    return;
  }
  // Ack flood: honest peers generate well under one ack frame per packet
  // we send; a flood is pure CPU/state pressure.
  const std::uint64_t allowance =
      config_.budgets.ack_flood_base +
      config_.budgets.ack_flood_per_packet_sent * stats_.packets_sent;
  if (guard_.ack_frames > allowance) {
    close_with_error(TransportError::kProtocolViolation,
                     ViolationKind::kAckFlood, guard_.ack_frames, acked_path);
    return;
  }

  const LossDetection::AckOutcome& outcome =
      p.loss.on_ack_received(info, loop_.now(), p.rtt);
  if (outcome.rtt_sample) {
    p.rtt.on_sample(*outcome.rtt_sample, info.ack_delay_us);
  }
  XLINK_TRACE(config_.trace,
              telemetry::Event::ack_mp(
                  loop_.now(), trace_origin(),
                  static_cast<std::uint8_t>(acked_path), info.largest_acked(),
                  outcome.acked_bytes,
                  outcome.rtt_sample ? *outcome.rtt_sample : 0,
                  outcome.rtt_sample.has_value()));
  if (!outcome.newly_acked.empty()) {
    p.pto_count = 0;
    p.last_ack_received = loop_.now();
    // Any fresh ack proves the path round-trips again: resurrect it.
    if (p.health != PathState::Health::kGood) resurrect_path(p);
  }

  // A ledger-only record's payload travels elsewhere: its ack counts for
  // the RTT sample and ack clock above, and for nothing below.
  for (const SentRecord* acked : outcome.newly_acked) {
    if (acked->ledger_only) continue;
    const SentRecord& rec = *acked;
    for (const SendItem& item : rec.items) {
      auto it = send_streams_.find(item.stream_id);
      if (it == send_streams_.end()) continue;
      it->second.on_range_acked(item.offset, item.offset + item.length,
                                item.fin);
      if (it->second.delivered()) {
        mark_retired(retired_send_, item.stream_id);
        send_streams_.erase(it);
      }
    }
    if (rec.ack_eliciting) {
      p.cc->on_ack(rec.bytes, rec.sent_time, loop_.now(), p.rtt.smoothed(),
                   rec.rate_stamp.is_app_limited);
      // Delivery-rate sample for this packet's flight (draft-cheng); the
      // rate-based controllers rebuild their model from these.
      const RateSample sample = p.sampler.on_ack(
          rec.rate_stamp, rec.bytes, rec.sent_time, loop_.now(),
          rec.pn == info.largest_acked() && outcome.rtt_sample
              ? *outcome.rtt_sample
              : 0,
          p.loss.bytes_in_flight());
      p.cc->on_rate_sample(sample, loop_.now());
      XLINK_TRACE(config_.trace,
                  telemetry::Event::cc_rate_sample(
                      loop_.now(), trace_origin(),
                      static_cast<std::uint8_t>(p.id),
                      static_cast<std::uint64_t>(sample.delivery_rate),
                      static_cast<std::uint64_t>(sample.btlbw),
                      sample.min_rtt, sample.is_app_limited));
    }
  }
  if (!outcome.newly_acked.empty()) {
    update_pacing(p);
    trace_cc_state(p);
  }
  if (!outcome.lost.empty()) on_packets_lost(p, outcome.lost);
}

void Connection::update_pacing(PathState& p) {
  p.pacer.configure(config_.pacing);
  if (!config_.pacing.enabled) return;
  std::uint64_t rate = p.cc->pacing_rate_bytes_per_sec();
  if (rate == 0) {
    // Loss-based controllers have no rate opinion: pace a cwnd per srtt
    // with 25% headroom so pacing shapes bursts without throttling growth.
    const double srtt = sim::to_seconds(p.rtt.smoothed());
    if (srtt > 0.0)
      rate = static_cast<std::uint64_t>(
          1.25 * static_cast<double>(p.cc->cwnd_bytes()) / srtt);
  }
  p.pacer.set_rate(rate);
}

void Connection::trace_cc_state(const PathState& p) {
  if (!config_.trace || !config_.trace->enabled()) return;
  const std::size_t ss = p.cc->ssthresh_bytes();
  config_.trace->record(telemetry::Event::cc_state(
      loop_.now(), trace_origin(), static_cast<std::uint8_t>(p.id),
      p.cc->cwnd_bytes(), p.loss.bytes_in_flight(),
      ss == static_cast<std::size_t>(-1) ? telemetry::kNoValue : ss,
      p.rtt.smoothed(), p.cc->in_slow_start(),
      p.pacer.enabled() ? p.pacer.rate_bytes_per_sec() : telemetry::kNoValue));
}

// ----------------------------------------------------------- loss handling

void Connection::on_packets_lost(PathState& p,
                                 const std::vector<LostPacket>& lost) {
  // Ledger-only records left the ledger; nothing else counts their loss.
  sim::Time latest_sent = 0;
  std::uint64_t lost_records = 0;
  for (const LostPacket& lp : lost) {
    const SentRecord& rec = *lp.record;
    if (rec.ledger_only) continue;
    latest_sent = std::max(latest_sent, rec.sent_time);
    XLINK_TRACE(config_.trace,
                telemetry::Event::loss(
                    loop_.now(), trace_origin(),
                    static_cast<std::uint8_t>(p.id), rec.pn, rec.bytes,
                    static_cast<std::uint8_t>(lp.reason)));
    ++lost_records;
  }
  if (lost_records == 0) return;
  p.packets_lost += lost_records;
  stats_.packets_lost += lost_records;
  // The sampler never counts lost bytes as delivered, but it must see them
  // so app-limited markers drain when a flight's tail dies instead of
  // being acked (BBR keeps cwnd; the model just stops growing).
  for (const LostPacket& lp : lost)
    if (!lp.record->ledger_only && lp.record->ack_eliciting)
      p.sampler.on_loss(lp.record->bytes);
  p.cc->on_loss_event(latest_sent, loop_.now());
  update_pacing(p);
  trace_cc_state(p);
  for (const LostPacket& lp : lost)
    if (!lp.record->ledger_only) requeue_record(*lp.record);
}

void Connection::requeue_record(const SentRecord& record) {
  // Stream data: requeue the still-unacked subranges, front of their class.
  for (const SendItem& item : record.items) {
    auto* stream = send_stream(item.stream_id);
    if (!stream) continue;
    if (item.length == 0 && item.fin) {
      if (!stream->fully_acked()) {
        SendItem dup = item;
        dup.is_retransmission = true;
        enqueue_item(dup, InsertMode::kFrontOfClass);
      }
      continue;
    }
    for (const auto& [b, e] :
         stream->unacked_within(item.offset, item.offset + item.length)) {
      SendItem dup = item;
      dup.offset = b;
      dup.length = e - b;
      dup.fin = item.fin && e == item.offset + item.length;
      dup.is_retransmission = true;
      // A lost re-injection stays a re-injection, with the path it just
      // died on as its origin, so path selection steers it elsewhere.
      if (dup.is_reinjection) dup.origin_path = record.path;
      enqueue_item(dup, InsertMode::kFrontOfClass);
    }
  }
  // Control frames: path frames stay on their path, the rest go anywhere.
  for (const Frame& f : record.control) {
    const bool path_bound = std::holds_alternative<PathChallengeFrame>(f) ||
                            std::holds_alternative<PathResponseFrame>(f);
    if (path_bound) {
      auto it = paths_.find(record.path);
      if (it != paths_.end() &&
          it->second->state != PathState::State::kAbandoned)
        queue_control(record.path, f);
    } else {
      queue_control(fastest_active_path(), f);
    }
  }
}

void Connection::rescue_in_flight(PathState& p) {
  // The records stay in the ledger: a late ACK for one still yields an RTT
  // sample and proves the path alive, but its payload now travels on the
  // other paths.
  for (SentRecord& rec : p.loss.unacked()) {
    requeue_record(rec);
    rec.ledger_only = true;
    rec.items.clear();
    rec.control.clear();
  }
}

void Connection::on_pto(PathState& p) {
  ++stats_.ptos;
  ++p.pto_count;
  XLINK_TRACE(config_.trace, telemetry::Event::pto(
                                 loop_.now(), trace_origin(),
                                 static_cast<std::uint8_t>(p.id), p.pto_count));
  if (config_.tcp_style_rto) {
    // TCP semantics: RTO collapses the window and slow-starts.
    p.cc->on_persistent_congestion(loop_.now());
  } else if (p.pto_count >= 3) {
    p.cc->on_persistent_congestion(loop_.now());
  }

  // Path health: repeated consecutive PTOs mean the path is not just slow
  // but (probably) dead. Degrade early so telemetry shows the slide, fail
  // over once the budget is spent -- but only if another schedulable path
  // can absorb the traffic; the last path keeps limping (kDegraded) with
  // its capped PTO probing, which is the graceful single-path mode.
  if (p.pto_count >= kFailoverPtoBudget && has_other_schedulable(p.id)) {
    fail_over_path(p);
    return;
  }
  if (p.health == PathState::Health::kGood &&
      p.pto_count >= kDegradedAfterPtos)
    set_path_health(p, PathState::Health::kDegraded);

  // Probe: retransmit the oldest unacked content (kept tracked;
  // stream-level ack state dedupes), including control frames -- a lost
  // handshake CRYPTO or PATH_CHALLENGE must be probed too. If no probe
  // materializes anything sendable, ping so the PTO clock advances.
  int probes = 0;
  bool queued_payload = false;
  for (const SentRecord& rec : p.loss.unacked()) {
    if (!rec.ack_eliciting) continue;
    if (probes >= 2) break;
    ++probes;
    queued_payload |= !rec.items.empty() || !rec.control.empty();
    requeue_record(rec);
  }
  if (!queued_payload) queue_control(p.id, Frame{PingFrame{}});
  // Emit the probe now, bypassing the congestion window.
  if (queued_payload) send_one_packet(p.id, /*ignore_cwnd=*/true);
}

// ------------------------------------------------------------ path health

sim::Duration Connection::path_pto_interval(const PathState& p) const {
  return backed_off_pto(
      p.rtt.pto(sim::millis(config_.params.max_ack_delay_ms)), p.pto_count);
}

void Connection::set_path_health(PathState& p, PathState::Health health) {
  if (p.health == health) return;
  p.health = health;
  XLINK_TRACE(config_.trace,
              telemetry::Event::path_health(
                  loop_.now(), trace_origin(), static_cast<std::uint8_t>(p.id),
                  static_cast<std::uint64_t>(health), p.pto_count));
}

bool Connection::has_other_schedulable(PathId id) const {
  for (const auto& [pid, p] : paths_)
    if (pid != id && p->schedulable()) return true;
  return false;
}

void Connection::fail_over_path(PathState& p) {
  set_path_health(p, PathState::Health::kProbing);
  ++stats_.failovers;

  // Standby (reversible, unlike abandon) tells the peer to stop scheduling
  // onto the path too; it flips back to available on resurrection.
  queue_path_status(p, PathStatusKind::kStandby);

  // Orphan rescue: everything still in flight on the dead path is requeued
  // (still-unacked subranges only) so surviving paths carry it. Loss state
  // is wiped so the path stops charging bytes_in_flight and stops arming
  // loss/PTO deadlines for packets that will never be acked.
  rescue_in_flight(p);
  p.loss.clear_in_flight();

  // Dead-path probing starts at the current backed-off PTO and doubles per
  // silent probe, capped -- the resurrection latency bound.
  p.probe_interval =
      std::clamp(path_pto_interval(p), kProbeIntervalMin, kProbeIntervalMax);
  p.next_probe_at = loop_.now() + p.probe_interval;
  p.probes_sent = 0;
  pump_send();
}

void Connection::resurrect_path(PathState& p) {
  const bool was_probing = p.health == PathState::Health::kProbing;
  set_path_health(p, PathState::Health::kGood);
  p.next_probe_at = 0;
  p.probe_interval = 0;
  p.probes_sent = 0;
  if (!was_probing) return;
  ++stats_.path_resurrections;
  queue_path_status(p, PathStatusKind::kAvailable);
}

void Connection::probe_dead_path(PathState& p) {
  ++p.probes_sent;
  ++stats_.dead_path_probes;
  // Tracked ack-eliciting PING: the ack (carried on a surviving path, since
  // ACK_MP for this space travels anywhere) is the resurrection signal.
  send_control_packet(p.id, Frame{PingFrame{}}, /*count_inflight=*/true);
  p.probe_interval = std::min(p.probe_interval * 2, kProbeIntervalMax);
  p.next_probe_at = loop_.now() + p.probe_interval;
}

// ----------------------------------------------------------------- timers

void Connection::arm_timers() {
  std::optional<sim::Time> earliest;
  auto consider = [&earliest](std::optional<sim::Time> t) {
    if (t && (!earliest || *t < *earliest)) earliest = t;
  };
  for (const auto& [id, p] : paths_) {
    if (p->state == PathState::State::kAbandoned) continue;
    if (p->ack_pending) consider(p->ack_deadline);
    if (p->health == PathState::Health::kProbing) {
      // Failed-over path: only the backoff probe timer runs; loss/PTO
      // deadlines were wiped with the in-flight state at failover.
      if (p->next_probe_at) consider(p->next_probe_at);
      continue;
    }
    consider(p->loss.loss_time(p->rtt));
    if (p->loss.has_ack_eliciting_in_flight())
      consider(p->last_ack_eliciting_sent + path_pto_interval(*p));
    // Pacer release: data is queued, the window has room, only the token
    // bucket is holding the path back -- wake when credit matures.
    if (config_.pacing.enabled && !pkt_send_q_.empty() &&
        p->schedulable() && p->cwnd_available() >= kDefaultMss / 2 &&
        !p->pacer.can_send(loop_.now()))
      consider(p->pacer.next_release_time(loop_.now()));
  }
  if (!earliest || closed_) {
    if (timer_id_) {
      loop_.cancel(timer_id_);
      timer_id_ = 0;
    }
    return;
  }
  // Floor 1ms ahead: a deadline that is already due is handled by the
  // pump/timer pass that follows, and scheduling at `now` could otherwise
  // re-fire within the same instant indefinitely. Pacer releases need
  // sub-millisecond wakes, so with pacing on a strictly-future deadline
  // keeps its exact time (still floored one tick ahead of now).
  sim::Time floor = loop_.now() + sim::kMillisecond;
  if (config_.pacing.enabled && *earliest > loop_.now())
    floor = loop_.now() + 1;
  const sim::Time at = std::max(*earliest, floor);
  // RFC 9002 Appendix A's SetLossDetectionTimer: the one timer moves in
  // place; it is only scheduled anew once it has fired or been cancelled.
  if (timer_id_ && loop_.reschedule(timer_id_, at)) return;
  timer_id_ = loop_.schedule_at(at, [this] {
    timer_id_ = 0;
    on_timer();
  });
}

void Connection::on_timer() {
  const sim::Time now = loop_.now();
  for (auto& [id, p] : paths_) {
    if (p->state == PathState::State::kAbandoned) continue;
    if (p->health == PathState::Health::kProbing) {
      if (p->next_probe_at && p->next_probe_at <= now) probe_dead_path(*p);
      continue;
    }
    const auto& lost = p->loss.detect_losses(now, p->rtt);
    if (!lost.empty()) on_packets_lost(*p, lost);
    if (p->loss.has_ack_eliciting_in_flight()) {
      if (p->last_ack_eliciting_sent + path_pto_interval(*p) <= now)
        on_pto(*p);
    }
  }
  pump_send();
}

// ----------------------------------------------------------- flow control

void Connection::queue_control(PathId path, Frame frame) {
  pending_control_[path].push_back(std::move(frame));
}

void Connection::queue_path_status(PathState& p, std::uint64_t status) {
  queue_control(fastest_active_path(),
                Frame{PathStatusFrame{p.id, ++p.status_seq_out, status}});
}

std::vector<std::uint8_t> Connection::consume_stream(StreamId id,
                                                     std::size_t max) {
  auto it = recv_streams_.find(id);
  if (it == recv_streams_.end()) return {};
  RecvStream& stream = it->second;
  std::vector<std::uint8_t> data(
      std::min<std::uint64_t>(max, stream.readable_bytes()));
  stream.read(data);
  data_consumed_ += data.size();
  queue_flow_updates(stream);
  if (stream.finished()) {
    mark_retired(retired_recv_, id);
    recv_streams_.erase(it);
  }
  pump_send();
  return data;
}

void Connection::queue_flow_updates(RecvStream& stream) {
  // Connection level: extend when half the window is consumed.
  const std::uint64_t window = config_.params.initial_max_data;
  if (local_max_data_ - data_consumed_ < window / 2) {
    local_max_data_ = data_consumed_ + window;
    queue_control(fastest_active_path(), Frame{MaxDataFrame{local_max_data_}});
  }
  // Stream level: only the stream just read has moved its read offset
  // since its grant was last checked.
  const std::uint64_t stream_window = config_.params.initial_max_stream_data;
  if (stream.max_data() - stream.read_offset() < stream_window / 2) {
    stream.set_max_data(stream.read_offset() + stream_window);
    queue_control(fastest_active_path(),
                  Frame{MaxStreamDataFrame{stream.id(), stream.max_data()}});
  }
}

}  // namespace xlink::quic
